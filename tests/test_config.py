"""The suite's own pytest configuration, run in a child pytest.

pyproject.toml turns every warning into an error.  A failing @given test
makes hypothesis's pytest plugin import libcst, which warns about
mypy_extensions.TypedDict; unfiltered, that warning is an INTERNALERROR
that ends the whole session, so the tests after the failure never run.
"""

from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_failing_given_test_does_not_end_the_session(pytester):
    path = pytester.makepyfile(test_one_fails="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x != x

        def test_passes():
            pass
    """)
    result = pytester.runpytest_subprocess(
        "-c", str(PYPROJECT), "--rootdir", str(pytester.path),
        "-p", "no:cacheprovider", str(path))
    result.assert_outcomes(failed=1, passed=1)
