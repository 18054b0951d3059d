"""The suite's own pytest settings, run on a small test file of their own."""

pytest_plugins = ["pytester"]


def test_falsifying_example_is_reported(pytester, pytestconfig):
    # under the suite's filterwarnings, a failing property test must end in
    # hypothesis's report, not in an INTERNALERROR from its patch writer
    filters = pytestconfig.getini("filterwarnings")
    assert "error" in filters
    pytester.makeini("[pytest]\nfilterwarnings =\n" + "".join(f"    {w}\n" for w in filters))
    pytester.makepyfile(test_property="""
        from hypothesis import given, settings, strategies as st

        @settings(database=None, derandomize=True)
        @given(st.integers(0, 10))
        def test_below_five(x):
            assert x < 5
    """)
    result = pytester.runpytest("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1)
    result.stdout.fnmatch_lines(["*Falsifying example: test_below_five(*"])
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
