"""Test-session set-up shared by every test module.

When a ``@given`` test fails, hypothesis imports ``hypothesis.extra._patching``
to suggest a patch, and with it ``libcst``, whose import raises a
DeprecationWarning (``mypy_extensions.TypedDict``). Under the
``filterwarnings = ["error"]`` setting that warning, raised inside pytest's
report hook, ends the session with INTERNALERROR: the failing test is not
named and the tests after it do not run. Importing the module once here,
with that one warning category ignored, keeps the setting strict for the
tests themselves. Without ``libcst`` there is nothing to import.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
