"""Golden transcript of the command line on every shipped manifest.

Each manifest is run through ``describe``; ``genus`` with each of the five
twists, plain and, except for ``signature``, with ``--equivariant`` on the
first circle ``choose_generic_circles`` picks for it (the manifest's bundles
included); and ``verify`` with each of the five theorems.  Two ``census``
runs, (n, k, bound) = (3, 1, 1) and (3, 2, 1), follow.  Every run is made
as text and with ``--json``: 154 runs, in process.  Exit code, stdout and
stderr must match ``golden/cli_transcript.json`` byte for byte.

The transcript was recorded at commit 97585836ab19e3ae0191723fc66f51e7b55dc86e,
whose characters carried Fraction coefficients.  Its four ``verify --theorem
lemma52 --json`` entries were re-recorded when face-ring integrals became
ints when integral: ``euler_pairing`` prints as a JSON number, not a
string.  The four ``census`` entries were recorded at commit
f58d53f22d635776759c7633b2dc3de769f280cc.  The five ``verify --theorem
table1 --json`` entries were then re-recorded when every exact value
became an int when integral: ``recomputed`` prints as a JSON number, like
``closed_form`` beside it, not as a string.

Run ``PYTHONPATH=src python tests/test_cli_golden.py`` from the repository
root to replay the transcript without pytest; it exits 1 on the first
mismatch.  After an intended output change, add ``--record`` to re-record
it, and review the diff.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from quasigenus.cli import main
from quasigenus.genus import choose_generic_circles
from quasigenus.manifest import parse_manifest

REPO = Path(__file__).resolve().parent.parent
MANIFESTS = REPO / "manifests"
TRANSCRIPT = Path(__file__).resolve().parent / "golden" / "cli_transcript.json"

TWISTS = ("none", "custom", "witten", "elliptic", "signature")
THEOREMS = ("circle", "index-I", "lemma52", "table1", "thm34")
CENSUSES = (("3", "1", "1"), ("3", "2", "1"))


def _circle(path):
    parsed = parse_manifest(path.read_text(encoding="utf-8"))
    xi = choose_generic_circles(parsed.build_manifold(), parsed.bundles(), 1)[0].xi
    return ",".join(map(str, xi))


def cases():
    """argv of every run, manifest paths relative to the repository root."""
    out = []
    for path in sorted(MANIFESTS.glob("*.ini")):
        name = f"manifests/{path.name}"
        runs = [["describe", name]]
        for twist in TWISTS:
            runs.append(["genus", name, "--twist", twist])
            if twist != "signature":
                runs.append(["genus", name, "--twist", twist,
                             "--equivariant", _circle(path)])
        runs += [["verify", name, "--theorem", t] for t in THEOREMS]
        for argv in runs:
            out += [argv, argv + ["--json"]]
    for n, k, bound in CENSUSES:
        argv = ["census", "--n", n, "--k", k, "--bound", bound]
        out += [argv, argv + ["--json"]]
    return out


def run(argv):
    """Exit code, stdout and stderr of one in-process run."""
    argv = [str(REPO / a) if a.startswith("manifests/") else a for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return {"exit": code, "stdout": stdout.getvalue(),
            "stderr": stderr.getvalue()}


def record():
    return [{"argv": argv, **run(argv)} for argv in cases()]


def test_transcript_is_unchanged():
    golden = json.loads(TRANSCRIPT.read_text(encoding="utf-8"))
    assert len(golden) == 154, f"{len(golden)} runs recorded"
    assert [e["argv"] for e in golden] == cases(), "the runs differ"
    # a re-recorded transcript must not depend on where the repository lives
    assert not any(str(REPO) in e["stdout"] + e["stderr"] for e in golden), \
        "the transcript holds the repository path"
    for entry in golden:
        got = run(entry["argv"])
        assert got == {k: entry[k] for k in got}, " ".join(entry["argv"])


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        TRANSCRIPT.parent.mkdir(exist_ok=True)
        TRANSCRIPT.write_text(json.dumps(record(), indent=1) + "\n",
                              encoding="utf-8")
    elif sys.argv[1:]:
        sys.exit(f"usage: {sys.argv[0]} [--record]")
    else:
        try:
            test_transcript_is_unchanged()
        except AssertionError as e:
            sys.exit(f"transcript mismatch: {e}")
        print("every run matches the transcript")
