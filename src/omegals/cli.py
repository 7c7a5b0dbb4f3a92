"""Command-line interface.

Subcommands: poisson (test-matrix generator), sweep (shift sweep + PCA
artifacts), index, decompose (block decomposition export), verify
(randomized suites; exit code 0 iff everything passes), and manifold
(member / construct / dim). Floats are printed with 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import io as oio
from .analysis import default_omega_grid, sweep_solutions
from .decomposition import tridiagonal_block_decomposition
from .experiments import poisson_2d, sweep_files
from .manifolds import (
    ManifoldClass,
    construct_positive_member,
    manifold_dimension,
    member_classes,
)
from .sampling import gaussian_vector
from .solver import ProblemInstance
from .subspaces import SUBSPACE_EQUAL_TOL, Subspace, index_of_invariance
from .verify import SUITES, run_suites

FF = oio.format_float


def _load_subspace(path: str) -> Subspace:
    """The span of the file's basis columns, re-orthonormalized: the sweep's
    spectrum and coordinates are only as accurate as the orthonormality of
    the constraint basis, and a file may hold it to no better than 1e-8."""
    cols = oio.load_subspace(path)
    s = Subspace.from_vectors(cols)
    if s.dim < cols.shape[1]:
        raise ValueError(f"{path}: the {cols.shape[1]} basis columns are rank-deficient "
                         f"(they span a subspace of dimension {s.dim})")
    return s


def _cmd_poisson(args) -> int:
    a = poisson_2d(args.m)
    oio.write_matrix_market(args.out, a, comment=f"5-point-stencil Laplacian, m={args.m}")
    print(f"wrote {a.shape[0]}x{a.shape[1]} matrix to {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    grid = default_omega_grid(args.count, args.omega_min, args.omega_max)
    a = oio.read_matrix_market(args.matrix)
    s = _load_subspace(args.subspace)
    if args.b is not None:
        b = oio.read_vector_market(args.b)
    else:
        b = gaussian_vector(np.random.default_rng(args.seed), a.shape[0], np.iscomplexobj(a))
    inst = ProblemInstance.create(a, s, b)
    sweep = sweep_solutions(inst, grid)
    metadata = {"matrix": args.matrix, "subspace": args.subspace,
                "b": args.b, "seed": args.seed,
                "omega_min": args.omega_min, "omega_max": args.omega_max,
                "subspace_dim": s.dim, "index": index_of_invariance(a, s)}
    files = sweep_files(sweep, args.out_prefix, args.include_solutions, metadata)
    print(f"estimated family dimension: {sweep.est_dim}")
    for kind, path in files.items():
        print(f"wrote {kind}: {path}")
    return 0


def _cmd_index(args) -> int:
    a = oio.read_matrix_market(args.matrix)
    s = _load_subspace(args.subspace)
    print(f"dim S = {s.dim}")
    print(f"index = {index_of_invariance(a, s)}")
    return 0


def _cmd_decompose(args) -> int:
    a = oio.read_matrix_market(args.matrix)
    s = _load_subspace(args.subspace)
    dec = tridiagonal_block_decomposition(a, s)
    obj = oio.decomposition_to_json(dec)
    with open(args.out, "w") as fh:
        json.dump(obj, fh, indent=2)
    print(f"n={dec.n} p={dec.p} q={dec.q} lambda_min={FF(dec.lambda_min)}")
    print(f"wrote decomposition to {args.out}")
    return 0


def _cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    results = run_suites(names, seed=args.seed, trials=args.trials)
    all_passed = True
    for res in results:
        print(res.summary())
        for failure in res.failures[:20]:
            print(f"    {failure}")
        all_passed = all_passed and res.passed
    return 0 if all_passed else 1


def _cmd_manifold(args) -> int:
    if args.action == "member":
        a = oio.read_matrix_market(args.matrix)
        s = _load_subspace(args.s)
        s_prime = _load_subspace(args.s_prime)
        cls = ManifoldClass.parse(args.cls)
        found = member_classes(a, s, s_prime, tol=args.tol)
        ok = cls in found
        print("member" if ok else "not a member")
        print("classes:", " ".join(c.value for c in ManifoldClass if c in found) or "none")
        return 0 if ok else 1
    if args.action == "construct":
        s = _load_subspace(args.s)
        s_prime = _load_subspace(args.s_prime)
        a = construct_positive_member(s, s_prime)
        oio.write_matrix_market(args.out, a, comment="positive member of the matrix set")
        print(f"wrote witness to {args.out}")
        return 0
    dim = manifold_dimension(args.n, args.p, args.q, ManifoldClass.parse(args.cls), args.field)
    print(dim)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="omegals")
    sub = parser.add_subparsers(dest="command", required=True)

    p_poisson = sub.add_parser("poisson", help="write the 5-point-stencil test matrix")
    p_poisson.add_argument("--m", type=int, required=True, help="grid side (N = m^2)")
    p_poisson.add_argument("--out", required=True, help="Matrix Market output path")
    p_poisson.set_defaults(func=_cmd_poisson)

    p_sweep = sub.add_parser("sweep", help="shift sweep with PCA artifacts")
    p_sweep.add_argument("--matrix", required=True)
    p_sweep.add_argument("--subspace", required=True, help="subspace JSON path")
    p_sweep.add_argument("--b", default=None, help="right-hand side (Matrix Market vector)")
    p_sweep.add_argument("--omega-min", type=float, default=1e-3)
    p_sweep.add_argument("--omega-max", type=float, default=1e3)
    p_sweep.add_argument("--count", type=int, default=200)
    p_sweep.add_argument("--seed", type=int, default=0,
                         help="seed for the Gaussian b when --b is omitted")
    p_sweep.add_argument("--out-prefix", required=True)
    p_sweep.add_argument("--include-solutions", action="store_true")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_index = sub.add_parser("index", help="dimension and index of a subspace")
    p_index.add_argument("--matrix", required=True)
    p_index.add_argument("--subspace", required=True)
    p_index.set_defaults(func=_cmd_index)

    p_dec = sub.add_parser("decompose", help="export the block decomposition as JSON")
    p_dec.add_argument("--matrix", required=True)
    p_dec.add_argument("--subspace", required=True)
    p_dec.add_argument("--out", required=True)
    p_dec.set_defaults(func=_cmd_decompose)

    p_verify = sub.add_parser("verify", help="run randomized verification suites")
    p_verify.add_argument("--suite", default="all", choices=[*SUITES, "all"])
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--trials", type=int, default=None)
    p_verify.set_defaults(func=_cmd_verify)

    p_man = sub.add_parser("manifold", help="matrix-set membership / construction / dimension")
    man_sub = p_man.add_subparsers(dest="action", required=True)

    m_member = man_sub.add_parser("member")
    m_member.add_argument("--matrix", required=True)
    m_member.add_argument("--s", required=True)
    m_member.add_argument("--s-prime", dest="s_prime", required=True)
    m_member.add_argument("--class", dest="cls", default="M")
    m_member.add_argument("--tol", type=float, default=SUBSPACE_EQUAL_TOL)
    m_member.set_defaults(func=_cmd_manifold)

    m_construct = man_sub.add_parser("construct")
    m_construct.add_argument("--s", required=True)
    m_construct.add_argument("--s-prime", dest="s_prime", required=True)
    m_construct.add_argument("--out", required=True)
    m_construct.set_defaults(func=_cmd_manifold)

    m_dim = man_sub.add_parser("dim")
    m_dim.add_argument("--n", type=int, required=True)
    m_dim.add_argument("--p", type=int, required=True)
    m_dim.add_argument("--q", type=int, required=True)
    m_dim.add_argument("--class", dest="cls", default="M")
    m_dim.add_argument("--field", default="R", choices=["R", "C"])
    m_dim.set_defaults(func=_cmd_manifold)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
