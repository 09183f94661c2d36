"""Regenerate every golden CLI output and compare it with tests/golden/outputs.

Integer tokens (supports, success flags, iteration counts, seeds) and words
must match exactly, floats to a relative 1e-9, and every command must exit
with its recorded code.  Exact bytes are a same-machine check made by
`tests/golden/golden.py`, not by this test.
"""

import pytest

from golden.golden import (OUTPUTS, load_manifest, run_commands, token_differences,
                           token_mismatches)

COMMANDS = load_manifest()
OUTPUT_NAMES = [name for cmd in COMMANDS for name in cmd["outputs"]]


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("golden")
    return out_dir, run_commands(COMMANDS, out_dir)


def test_manifest_covers_every_cli_choice():
    from bisparse.cli import PROJECTIONS
    from bisparse.recovery import ALGOS

    argvs = [cmd["argv"] for cmd in COMMANDS]

    def flag_values(sub, flag):
        return {argv[argv.index(flag) + 1] for argv in argvs if argv[0] == sub and flag in argv}

    assert flag_values("project", "--op") == set(PROJECTIONS)
    assert flag_values("recover", "--algo") == set(ALGOS)
    assert {spec.split("/")[-1][:-5] for spec in flag_values("bench", "--spec")} >= set(ALGOS)
    assert flag_values("bench", "--mode") == {"rip"}
    assert any(argv[0] == "rip" for argv in argvs)


def test_outputs_directory_holds_exactly_the_manifest_files():
    # a deleted manifest entry must take its output file with it
    assert sorted(path.name for path in OUTPUTS.iterdir()) == sorted(OUTPUT_NAMES)


@pytest.mark.parametrize("pos", range(len(COMMANDS)), ids=[cmd["name"] for cmd in COMMANDS])
def test_exit_code(regenerated, pos):
    _, codes = regenerated
    assert codes[pos] == COMMANDS[pos]["exit"]


@pytest.mark.parametrize("name", OUTPUT_NAMES)
def test_output_matches(regenerated, name):
    out_dir, _ = regenerated
    expected = (OUTPUTS / name).read_text()
    actual = (out_dir / name).read_text()
    assert token_mismatches(expected, actual) == []


class TestTokenMismatches:
    def test_integers_must_be_equal(self):
        assert token_mismatches("iterations 11", "iterations 11") == []
        assert token_mismatches("iterations 11", "iterations 12") != []
        assert token_mismatches("a,1,0", "a,1,1") != []

    def test_floats_within_relative_tolerance(self):
        assert token_mismatches("0.5 1e-17", "0.50000000000001 3e-17") == []
        assert token_mismatches("1000.0", "1000.0000001") == []
        assert token_mismatches("1000.0", "1000.00001") != []
        assert token_mismatches("nan", "nan") == []
        assert token_mismatches("nan", "0.5") != []

    def test_words_and_shape_must_match(self):
        assert token_mismatches("mode l2", "mode l1") != []
        assert token_mismatches("1 2 3", "1 2") != []

    def test_differences_count_unequal_tokens_and_largest_float_gap(self):
        assert token_differences("a 1 0.5", "a 1 0.5") == "0 of 3 tokens differ"
        assert (token_differences("iters 7 res 5e-08 x 0.25", "iters 7 res 5.1e-08 x 0.2500001")
                == "2 of 6 tokens differ, largest float difference 1e-07 at 0.25")
        assert token_differences("1 2 3", "1 2") == "3 tokens expected, got 2"
        assert token_differences("mode l2", "mode l1") == "1 of 2 tokens differ"
        # integer tokens, such as iteration counts, are listed and kept out of the float gap
        assert (token_differences("iters 8 res 5e-08", "iters 7 res 5.1e-08")
                == "2 of 4 tokens differ, largest float difference 1e-09 at 5e-08, "
                   "1 integer token differs: 8 -> 7")
        assert (token_differences("a,8,9,0.5", "a,7,8,0.5")
                == "2 of 4 tokens differ, 2 integer tokens differ: 8 -> 7; 9 -> 8")
