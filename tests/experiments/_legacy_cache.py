"""Test-only writer of the flat result cache layout of the 2.x releases.

2.x memoized every completed run as one JSON file,
``<root>/<key[:2]>/<key>.json``, holding ``{"spec": ..., "scale": ...,
"record": ...}`` under the run's :func:`~repro.experiments.cache.spec_key`.
The program no longer writes that layout, but
:meth:`~repro.experiments.store.RunStore.import_cache` (``repro store
import``) still reads it, so the import tests and the CI import step build
their legacy cache with this module.  From the command line::

    PYTHONPATH=src:. python -m tests.experiments._legacy_cache \\
        .repro_cache fft --mtbe 64k --seeds 4 --scale 0.05

writes the entries ``repro sweep fft --mtbe 64k --seeds 4 --scale 0.05``
would have cached.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.api import parse_mtbe
from repro.experiments.cache import record_to_dict, spec_to_dict
from repro.experiments.parallel import RunSpec
from repro.experiments.runner import RunRecord, SimulationRunner


def entry_path(root: str | Path, key: str) -> Path:
    """Where 2.x kept the entry of *key* under *root*."""
    return Path(root) / key[:2] / f"{key}.json"


def write_entry(
    root: str | Path, spec: RunSpec, scale: float, record: RunRecord
) -> Path:
    """Write one 2.x cache entry; returns its path."""
    path = entry_path(root, spec.content_key(scale))
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "spec": spec_to_dict(spec),
        "scale": scale,
        "record": record_to_dict(record),
    }
    path.write_text(json.dumps(payload))
    return path


def write_cache(root: str | Path, specs, scale: float) -> list[Path]:
    """Execute *specs* at *scale* and file each record as a 2.x entry."""
    runner = SimulationRunner(scale=scale)
    return [
        write_entry(root, spec, scale, runner.execute_spec(spec)) for spec in specs
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", help="cache root to write, e.g. .repro_cache")
    parser.add_argument("app")
    parser.add_argument("--mtbe", nargs="+", default=["64k"])
    parser.add_argument("--seeds", type=int, default=1)
    parser.add_argument("--scale", type=float, default=0.5)
    args = parser.parse_args(argv)
    specs = [
        RunSpec(app=args.app, mtbe=parse_mtbe(mtbe), seed=seed)
        for mtbe in args.mtbe
        for seed in range(args.seeds)
    ]
    paths = write_cache(args.root, specs, args.scale)
    print(f"wrote {len(paths)} legacy cache entries under {args.root}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
