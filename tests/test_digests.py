"""Committed digests of the program's answers and output on fixed inputs.

Each entry of golden/digests.json is a record count and a SHA-256 over one
sorted-key JSON line per record, in order:

* ``values``: n, I, J, sdepth, depth over (0, 2, 3) and the criteria bound
  of every pair in ``corpus.small_pairs()`` and then ``corpus.n5_slice()``.
  No correct change alters it.
* ``certificates``: for the same pairs, the certificate intervals as masks,
  the search's node count and each field's homology witness (sigma, index).
  A change to the search or to the depth scan may alter it on purpose, and
  says so in CHANGES.md.
* ``streams``: n, I, J of every pair that the enumerators and the sampler
  emit, in order, for the families in ``stream_records``.
* ``cli``: exit code and stdout of the in-process ``main`` calls in
  ``cli_records``: eight commands on each corpus file and three family runs.

Regenerate all four from the repo root with

PYTHONPATH=src:tests python3 -c "import json, test_digests as t; t.DIGESTS.write_text(json.dumps({k: t.digest(f()) for k, f in t.RECORDS.items()}, indent=2, sort_keys=True) + '\\n')"
"""

import contextlib
import functools
import hashlib
import io
import itertools
import json
import os
from pathlib import Path
from unittest import mock

import pytest
from corpus import canonical_pairs, engine_results, n5_slice, small_pairs, small_results
from test_io_cli import CORPUS, HUNT_GOLDENS

from sqdepth.cli import CHARS_ENV, main
from sqdepth.ideal_io import load_ideal
from sqdepth.lab import InstanceFamily, enumerate_instances, sample_instances

DIGESTS = Path(__file__).parent / "golden" / "digests.json"
CHARS = (0, 2, 3)
FILE_COMMANDS = (
    "analyze",
    "analyze --json",
    "analyze --paranoid --json",
    "sdepth --certificate",
    "sdepth --json --target {d_plus_1}",
    "depth --witness --chars 0,2,3,5",
    "depth --json",
    "criteria --json",
)


def digest(records) -> dict:
    h = hashlib.sha256()
    count = 0
    for record in records:
        h.update(json.dumps(record, sort_keys=True).encode() + b"\n")
        count += 1
    return {"records": count, "sha256": h.hexdigest()}


def pair_record(p) -> dict:
    return {"n": p.n, "I": list(p.i_masks), "J": list(p.j_masks)}


@functools.cache
def engine_rows():
    return small_results() + engine_results(n5_slice())


def value_records():
    for r in engine_rows():
        depths = [r.profile[c].depth for c in CHARS]
        yield {**pair_record(r.pair), "sdepth": r.sdepth.value, "depth": depths, "bound": r.bound}


def certificate_records():
    for r in engine_rows():
        witnesses = [r.profile[c] for c in CHARS]
        yield {
            "intervals": [[iv.lo.mask, iv.hi.mask] for iv in r.sdepth.certificate.intervals],
            "nodes": r.sdepth.nodes,
            "witness": [[w.witness_sigma.mask, w.witness_index] for w in witnesses],
        }


def stream_records():
    streams = itertools.chain(
        small_pairs(),
        canonical_pairs(),
        enumerate_instances(
            InstanceFamily(5, 1, 2, j_policy="exhaustive", symmetry_reduction=True)
        ),
        enumerate_instances(InstanceFamily(4, 1, 2, with_e=True, j_policy="exhaustive")),
        sample_instances(InstanceFamily(5, 1, 3, j_policy="random"), 200, 7),
    )
    return map(pair_record, streams)


def cli_records():
    argvs = [
        command.format(d_plus_1=load_ideal(path)[0].d + 1).split() + [str(path)]
        for path in sorted(CORPUS.glob("*.ideal"))
        for command in FILE_COMMANDS
    ]
    argvs += HUNT_GOLDENS.values()
    argvs.append("hunt --check floor --n 4 --k 2 --samples 25 --seed 13 --json".split())
    with mock.patch.dict(os.environ):
        os.environ.pop(CHARS_ENV, None)
        for argv in argvs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            yield {"code": code, "stdout": out.getvalue()}


RECORDS = {
    "values": value_records,
    "certificates": certificate_records,
    "streams": stream_records,
    "cli": cli_records,
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_digest_is_unchanged(name):
    assert digest(RECORDS[name]()) == json.loads(DIGESTS.read_text())[name], (
        f"the {name} digest changed; see the test module's docstring"
    )
