"""Decision diff of the OSD decoder: the working tree against a parent commit.

    python3 tools/decision_diff.py --parent HEAD
    PYTHONPATH=src python3 tools/decision_diff.py --digest tests/decision_digests.json

The parent commit is exported with ``git archive`` into a temporary
directory, as ``tools/bench_pairs.py`` does.  Each tree decodes the same
seeded comparison set in its own subprocess (``decide``): the eBCH codes
and orders of ``CASES``, at the normal-approximation SNR for epsilon =
1e-3 (``NA_DB``, stored so that a change to ``required_snr`` moves no
word) moved by each of ``OFFSETS_DB``, with y unquantised and rounded to
each of ``QUANTA`` (rounding makes |y| and candidate scores tie exactly,
so tie-breaking is compared too).  The tool prints the number of words
whose decided codeword differs, per code and order, and exits 1 if any
word differs.  It takes about 40 s on two vCPUs.

``--digest`` decodes ``DIGEST_WORDS`` words per point with the osdlat
that is importable and stores the sha256 of each code and order's
decisions (``digests()``) with the numpy, Python and platform build, as
``tools/golden_cli.py digest`` does.  ``tests/test_codecsim.py`` decodes
the same words and compares them with the checked-in
``tests/decision_digests.json``, so a change that moves a decision
updates that file in the same diff.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
from bench_pairs import ROOT, export
from golden_cli import build

# (n, k, highest order): orders 0 to the highest are decoded
CASES = ((8, 4, 4), (16, 7, 4), (16, 11, 4), (32, 16, 4), (32, 26, 3), (64, 36, 3), (64, 57, 2),
         (128, 64, 2), (128, 57, 2))
# required_snr(n, 1e-3, k / n) in dB for each code of CASES, stored so that
# a change to required_snr's low digits moves no word
NA_DB = {(8, 4): 6.670174152057846, (16, 7): 5.166645830632075, (16, 11): 7.180648341691804,
         (32, 16): 4.595072443017219, (32, 26): 7.742794375704356, (64, 36): 4.238175156530372,
         (64, 57): 8.302571310645883, (128, 64): 2.772937918735114, (128, 57): 2.175888657573072}
OFFSETS_DB = (-2.0, -1.0, 0.0, 1.0, 2.0)
QUANTA = (0.0, 0.25, 0.5)
WORDS = 2048  # per code, order, offset and quantum
DIGEST_WORDS = 256  # the same, for the checked-in digest
SNIPPET = """
import sys
import numpy as np
sys.path.insert(0, sys.argv[1])
import decision_diff

np.savez(sys.argv[2], **decision_diff.decide(decision_diff.WORDS))
"""


def decide(words: int) -> dict:
    """Decided codewords (packed, one row per word) per code and order, by the
    osdlat that is importable, with words words per offset and quantum."""
    from osdlat.codecsim import build_ebch, osd_decode

    decided = {}
    for n, k, top in CASES:
        code = build_ebch(n, k)
        for order in range(top + 1):
            rows = []
            for i, offset in enumerate(OFFSETS_DB):
                rng = np.random.default_rng([n, k, order, i])
                codewords = rng.integers(0, 2, (words, k)) @ code.generator % 2
                y = 1.0 - 2.0 * codewords + 10 ** (-(NA_DB[n, k] + offset) / 20) * rng.standard_normal((words, n))
                for quantum in QUANTA:
                    rows.append(osd_decode(code, np.round(y / quantum) * quantum if quantum else y, order)[1])
            decided[f"{n}x{k}_s{order}"] = np.packbits(np.concatenate(rows), axis=1)
    return decided


def digests(decided: dict) -> dict:
    """Hex sha256 of each decide() entry's packed rows."""
    return {name: hashlib.sha256(rows.tobytes()).hexdigest() for name, rows in decided.items()}


def decisions(side: Path, out: Path) -> dict:
    """decide(WORDS) by the tree at side."""
    env = {k: v for k, v in os.environ.items() if k not in ("OSDLAT_WORKERS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(side / "src")
    tools = str(Path(__file__).resolve().parent)
    subprocess.run([sys.executable, "-c", SNIPPET, tools, str(out)], cwd=side, env=env, check=True)
    with np.load(out) as saved:
        return dict(saved)


def write_digests(path: str) -> None:
    doc = {"build": build(), "words": DIGEST_WORDS, "digests": digests(decide(DIGEST_WORDS))}
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"stored {len(doc['digests'])} digests in {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", default="HEAD", help="commit the working tree is compared with")
    parser.add_argument("--digest", metavar="PATH", help="store the decision digests in PATH instead")
    args = parser.parse_args(argv)
    if args.digest:
        write_digests(args.digest)
        return 0
    with tempfile.TemporaryDirectory(prefix="decision-diff-") as tmp:
        parent = Path(tmp) / "parent"
        export(args.parent, parent)
        old = decisions(parent, Path(tmp) / "parent.npz")
        new = decisions(ROOT, Path(tmp) / "change.npz")
    differing = total = 0
    for name in old:
        count = int(np.any(old[name] != new[name], axis=1).sum())
        differing, total = differing + count, total + len(old[name])
        print(f"{name}: {count} of {len(old[name])} words differ")
    print(f"total: {differing} of {total} words differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
