"""In-process fuzzing of the console entry point: every input ends in a
documented exit code (0 report, 2 unknown scenario or usage, 3 invalid
configuration, 4 window or capacity) within a time bound, never in exit 1 or
a traceback."""

import contextlib
import io
import json
import time

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hhdx.cli import SCENARIOS, main

CASE_SECONDS = 5.0

specs = st.one_of(
    st.none(),
    # near-valid term, row and coefficient lists, and text that is not
    st.lists(st.lists(st.integers(-3, 9), min_size=1, max_size=4), min_size=1, max_size=4)
    .map(lambda rows: ";".join(",".join(map(str, row)) for row in rows)),
    st.text(alphabet="0123456789,;- x", max_size=12),
    st.sampled_from(["", ";", ",", "1,,2", "9" * 30, "1,0," + "9" * 25,
                     "1," + "9" * 25 + ",1", "9" * 25 + ",0,1"]),
)


@settings(deadline=None, max_examples=300)
@given(scenario=st.sampled_from(sorted(SCENARIOS) + ["nope"]),
       prime=st.sampled_from([2, 3, 5, 7, 11, 101]) | st.sampled_from([4, 6, 9, 15, 1, 0, -3]),
       depth=st.integers(-1, 3) | st.sampled_from([40, 10 ** 9, 10 ** 25]),
       degree_bound=st.integers(-2, 12), dp_cap=st.integers(-2, 12),
       algebra=st.sampled_from([None, "m2", "kxk", "dual", "m3", ""]),
       curve=specs, operator=specs)
# a matrix entry past int64 once ended in an OverflowError traceback
@example(scenario="proper-hh", prime=2, depth=0, degree_bound=0, dp_cap=0, algebra=None,
         curve=None, operator="9" * 30)
def test_every_input_ends_in_a_documented_exit_code(scenario, prime, depth, degree_bound, dp_cap,
                                                     algebra, curve, operator):
    argv = ["--scenario", scenario, "--prime", str(prime), "--depth", str(depth),
            "--degree-bound", str(degree_bound), "--dp-cap", str(dp_cap), "--json"]
    for flag, value in (("--algebra", algebra), ("--curve", curve), ("--operator", operator)):
        if value is not None:
            argv.append(f"{flag}={value}")
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing the command line
            code = exc.code
    assert time.perf_counter() - start < CASE_SECONDS, argv
    assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert (code == 0) == bool(out.getvalue()), argv
    if code == 0:  # JSON-ready values only, and keys that sort as strings
        assert out.getvalue() == json.dumps(json.loads(out.getvalue()), indent=2,
                                            sort_keys=True) + "\n", argv
