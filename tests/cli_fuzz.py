"""The fit contract of tests/test_cli.py on thousands of examples.

The tier-1 property draws 150 examples of fit_runs; this script draws
3,000 (or the count given) from the same strategy, derandomized, and
checks each with the same check_fit_run. pytest does not collect this
file. Run it from the repository root:

    PYTHONPATH=src:tests python tests/cli_fuzz.py [examples]

On the first violation it prints the fit argv and the samples CSV and
exits 1. The strategy keeps every size small (at most 30 rows, 50
draws and 200 iterations), so no example allocates much memory.
"""

import pathlib
import sys
import tempfile
import traceback
import warnings

from hypothesis import Phase, given, settings

from test_cli import check_fit_run, fit_runs

EXAMPLES = 3000


def main(examples: int) -> int:
    # Tier-1 turns numpy's RuntimeWarnings into errors; so does this.
    warnings.simplefilter("error", RuntimeWarning)
    failures = []
    with tempfile.TemporaryDirectory() as directory:
        # No shrinking: the first violating example is the one reported.
        @settings(max_examples=examples, derandomize=True, deadline=None,
                  phases=[Phase.generate])
        @given(fit_runs())
        def fuzz(run):
            try:
                check_fit_run(pathlib.Path(directory), run)
            except Exception:
                failures.append((run, traceback.format_exc()))
                raise

        try:
            fuzz()
        except Exception:
            if not failures:  # Hypothesis itself failed, not the contract
                raise
            (text, argv), trace = failures[0]
            print("violation: tropfit fit --input samples.csv", *argv)
            print("samples CSV:")
            print(text, end="")
            print(trace, end="")
            return 1
    print(f"{examples} examples of the fit contract hold")
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else EXAMPLES))
