"""Write the reference outputs in ``perfbench/ref`` from the ramat in ``src``.

The committed references were captured at the commit that introduced the
benchmark; they define the outputs every later commit must reproduce, so
run this again only to extend the references, never to absorb a changed
output:

    python3 perfbench/capture_refs.py
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import sys

from workloads import CORPUS, HERMITE_CHECKED, KNESER, REF, SRC, hermite_digest, kneser_label

sys.path.insert(0, str(SRC))

import ramat  # noqa: E402
import ramat.cli  # noqa: E402


def cli_lines(argv) -> list:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = ramat.cli.main(argv)
    if rc != 0:
        raise SystemExit(f"ramat {' '.join(argv[:2])} exited {rc}")
    return buf.getvalue().splitlines()


def main() -> int:
    REF.mkdir(exist_ok=True)
    analyze = cli_lines(["analyze", str(CORPUS)])
    with gzip.GzipFile(REF / "corpus8_analyze.jsonl.gz", "wb", mtime=0) as fh:
        fh.write(("\n".join(analyze) + "\n").encode("ascii"))
    batch = cli_lines(["batch", str(CORPUS), "--workers", "1"])
    (REF / "corpus8_batch.tsv").write_text("\n".join(batch) + "\n", encoding="ascii")
    verify = cli_lines(["verify", "--suite", "all"])
    (REF / "verify_all.tsv").write_text("\n".join(verify) + "\n", encoding="ascii")

    records, hermite = {}, {}
    for params in KNESER.values():
        for p in params:
            g = ramat.graphs.kneser(*p)
            (records[kneser_label(*p)],) = cli_lines(["analyze", ramat.graph6_encode(g)])
    for params in HERMITE_CHECKED.values():
        for p in params:
            h = ramat.hermite_normal_form(ramat.ra_matrix(ramat.graphs.kneser(*p)).matrix)
            hermite[kneser_label(*p)] = {
                "rank": len(h.pivot_columns),
                "cols": h.matrix.cols,
                "sha256": hermite_digest(h),
            }
    for name, obj in (("kneser_analyze.json", records), ("kneser_hermite.json", hermite)):
        (REF / name).write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n",
                                encoding="ascii")
    print(f"wrote {len(analyze)} analyze lines, {len(batch)} batch lines, "
          f"{len(verify)} verify lines, {len(records)} Kneser records to {REF}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
