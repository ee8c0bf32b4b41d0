"""The suite's warning filters, checked in a child pytest run.

Tier-1 turns every DeprecationWarning into an error.  When a hypothesis
property fails, hypothesis' pytest plugin imports libcst to suggest a
patch, and libcst warns through ``mypy_extensions.TypedDict``.  Unless
that one warning is ignored, the report becomes an INTERNALERROR and
the falsifying example is never printed.  A command-line ``-W`` filter
takes precedence over the ini ignore, so CI passes none.
"""

pytest_plugins = ["pytester"]

PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_property(x):
    assert x < 5
"""

DEPRECATED = """
import warnings


def test_deprecated():
    warnings.warn("old API", DeprecationWarning)
"""


def _run(pytester, request, source):
    """Run *source* as a test module under this suite's filters."""
    filters = request.config.getini("filterwarnings")
    pytester.makeini("[pytest]\nfilterwarnings =\n"
                     + "".join(f"    {f}\n" for f in filters))
    pytester.makepyfile(test_child=source)
    return pytester.runpytest_subprocess("-p", "no:cacheprovider")


def test_failing_property_prints_its_example(pytester, request):
    result = _run(pytester, request, PROPERTY)
    result.assert_outcomes(failed=1)
    result.stdout.fnmatch_lines(["*Falsifying example*"])
    assert "INTERNALERROR" not in result.stdout.str()


def test_deprecation_warning_still_fails_a_test(pytester, request):
    result = _run(pytester, request, DEPRECATED)
    result.assert_outcomes(failed=1)
    result.stdout.fnmatch_lines(["*DeprecationWarning: old API*"])
