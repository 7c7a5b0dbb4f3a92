#!/usr/bin/env python3
"""Run the shift-sweep PCA experiment at the reference scale and write the
CSV artifacts.

Builds the N = 529 five-point-stencil operator, a sum of Krylov subspaces
(two summands of orders 11 and 6 for index 2, plus the three-summand variant
of orders 11, 6, 4 for index 3), sweeps 200 log-spaced shifts in
[1e-3, 1e3], and writes sigma.csv / coords.csv / meta.json per variant.
Prints each run's stage timings and the peak resident set size of the
process so far.
"""

import argparse
import resource
from pathlib import Path

from omegals.experiments import Figure1Config, run_figure1

VARIANTS = {
    "two": dict(orders=(11, 6), target_index=2),
    "three": dict(orders=(11, 6, 4), target_index=3),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="figure1_out")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--write-solutions", action="store_true")
    args = parser.parse_args()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, overrides in VARIANTS.items():
        config = Figure1Config(m=23, count=args.count, seed=args.seed,
                               out_prefix=str(out_dir / f"{name}_"),
                               write_solutions=args.write_solutions, **overrides)
        result = run_figure1(config)
        sigma = result.sweep.sigma
        drop = sigma[result.index] / sigma[0]
        print(f"{name}-summand: dim S = {result.subspace_dim}, index = {result.index}, "
              f"estimated family dim = {result.est_dim}, "
              f"sigma_{result.index + 1}/sigma_1 = {drop:.3e}, "
              f"elapsed = {result.elapsed_seconds:.2f}s")
        stages = ", ".join(f"{stage} {seconds:.3f}s" for stage, seconds in result.stages.items())
        # ru_maxrss is in KiB on Linux
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"  stages: {stages}; peak RSS {peak_mb:.1f} MB")
        for kind, path in result.files.items():
            print(f"  wrote {kind}: {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
