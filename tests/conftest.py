"""Import hypothesis's patch writer before any test can fail.

When a property test fails, hypothesis's pytest plugin imports
`hypothesis.extra._patching`, and through it `libcst`, which raises a
`DeprecationWarning` on import.  Under `-W error` that warning replaces the
falsifying example with an INTERNALERROR trace.  Importing the module here,
with only `DeprecationWarning` ignored and only for this import, lets the
report print; warnings raised inside tests stay errors.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
