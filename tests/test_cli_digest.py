"""Every CLI output and library result of tests/cli_digest.py against the committed digest."""
import difflib
import os

import cli_digest


def test_every_cli_output_matches_the_committed_digest():
    # byte-identity of every preset, sweep, benchmark op and edge probe, of
    # each successful run's manifest replay and of every field of the Monte
    # Carlo library results; the first line holds the numpy and BLAS
    # versions, so another build of either fails here too
    with open(os.path.join(cli_digest.HERE, "cli_digest.txt")) as fh:
        want = fh.read().splitlines()
    lines, differs, _ = cli_digest.digest_all()
    got = [cli_digest.versions()] + lines
    assert got == want, "\n".join(difflib.unified_diff(
        want, got, "tests/cli_digest.txt", "this tree", lineterm=""))
    assert not differs, differs


def test_each_spec_runs_once_and_every_refusal_is_a_spec():
    # a repeated spec would only repeat its lines; each refusal row of
    # tests/test_cli.py is pinned here too, with its stderr
    specs = [tuple(argv) for argv in cli_digest.specs()]
    assert len(specs) == len(set(specs))
    assert {tuple(argv) for argv, _ in cli_digest.REFUSALS} <= set(specs)
