"""Command-line front end.

Subcommands: ``detect`` (one algorithm, one parameter point), ``sweep``
(label tables across a coupling-strength grid) and ``compare`` (the four
algorithms across a coupling-density grid).  Each reads its network from
one of ``--input`` (a flat edge file, or a grid under a ``#dims`` line),
``--manifest`` and ``--dataset``.  Exit codes: 0 success, 1 solver
failure, 2 input error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys

import numpy as np

from .baselines import mlouv, sfull_spec, smean_spec
from .datasets import build_karate_replica, load_karate
from .errors import ConvergenceError, DomainError, MlmodError
from .io import (
    load_couplings,
    load_dataset,
    load_multiplex,
    load_params_file,
    save_result,
)
from .modularity import modularity
from .mspec import mspec_detect
from .network import generate_couplings
from .params import COUPLING_STRATEGIES, CouplingSpec, ModularityParams

ALGORITHMS = ("mspec", "mlouv", "smean", "sfull")
DEFAULT_OMEGAS = (0.0, 0.01, 0.1, 1.0, 10.0)
DEFAULT_RHOS = tuple(round(0.1 * i, 1) for i in range(11))


def _seed_for(base: int, *key: int) -> int:
    """Deterministic child seed for a grid point."""
    return int(np.random.SeedSequence(entropy=base, spawn_key=key).generate_state(1)[0])


def _add_common(p: argparse.ArgumentParser) -> None:
    route = p.add_mutually_exclusive_group()
    route.add_argument("--input", help="multiplex edge-list file, or a #dims grid file")
    p.add_argument("--layers-file", help="layer table of --input: layerId aspectId label")
    p.add_argument("--couplings-file", help="coupling list file (grid coupling lines for a grid)")
    route.add_argument("--manifest", help="dataset manifest file")
    route.add_argument("--dataset", choices=("karate", "karate-replica"),
                       help="bundled dataset instead of --input")
    p.add_argument("--nodes", type=int, help="declare the node count of --input")
    p.add_argument("--layers", type=int,
                   help="layer count for --dataset karate-replica (default 10)")
    p.add_argument("--gamma", type=float, nargs="+",
                   help="resolution(s): one value or one per layer")
    p.add_argument("--lambda", dest="lam", type=float, nargs="+",
                   help="layer weight(s): one value or one per layer")
    p.add_argument("--omega", type=float, nargs="+", help="coupling strength(s)")
    p.add_argument("--coupling-strategy", default=None, choices=COUPLING_STRATEGIES)
    p.add_argument("--params-file", help="key-value parameter file")
    p.add_argument("--seed", type=int, default=0,
                   help="non-negative integer seed for stochastic steps")
    p.add_argument("--normalized", action="store_true",
                   help="report Q divided by the normalization factor mu")
    p.add_argument("--signed", action="store_true", help="signed-network modularity")
    p.add_argument("--no-refine", action="store_true",
                   help="pure sign-rule spectral recursion, no relocation sweeps")
    p.add_argument("--out", required=True, help="output directory")


def _resolve_network(args):
    """Build the network; coupling magnitudes travel with its couplings."""
    if args.input is None and (args.layers_file or args.nodes is not None):
        raise DomainError("--layers-file and --nodes describe an --input file")
    if args.layers is not None and args.dataset != "karate-replica":
        raise DomainError("--layers sets the size of --dataset karate-replica")
    if args.dataset == "karate":
        net, _ = load_karate()
    elif args.dataset == "karate-replica":
        # the replica's layers do not depend on gamma, which _setup sets
        layers = 10 if args.layers is None else args.layers
        net, _ = build_karate_replica(layers, [1.0] * layers)
    elif args.manifest:
        net, _ = load_dataset(args.manifest)
    elif args.input:
        net = load_multiplex(args.input, args.layers_file, n_nodes=args.nodes)
    else:
        raise DomainError("no input network: pass --input, --manifest or --dataset")
    if args.couplings_file:
        net = net.with_couplings(load_couplings(args.couplings_file, net, net.n_nodes)[0])
    return net


def _setup(args, sweep_omegas=None):
    """The network, its ModularityParams and one CouplingSpec per omega of a
    detect, sweep or compare run.  Each setting comes from its flag, else
    from the parameter file, else from its default.  Without
    ``sweep_omegas``, the default grid of a sweep, the run takes one omega."""
    if args.seed < 0:  # checked also where no step of the run draws from it
        raise DomainError(f"--seed must be a non-negative integer, got {args.seed}")
    net = _resolve_network(args)
    fpar = load_params_file(args.params_file, net.n_cells) if args.params_file else {}
    ladder = ([round(0.1 * (s + 1), 10) for s in range(net.n_cells)]
              if args.dataset == "karate-replica" else 1.0)
    value = {key: fpar.get(key, default) if flag is None else flag for key, flag, default in (
        ("gamma", args.gamma, ladder),
        ("lambda", args.lam, 1.0),
        ("omega", args.omega, sweep_omegas or 1.0),
        ("coupling.strategy", args.coupling_strategy, "uniform"),
        # --signed and --normalized can only turn their setting on
        ("signed", args.signed or None, False),
        ("normalization", "normalized" if args.normalized else None, "raw"),
    )}
    params = ModularityParams.for_network(
        net, gamma=value["gamma"], lam=value["lambda"], normalization=value["normalization"],
        signed=value["signed"], gamma_plus=fpar.get("gamma.plus"),
        gamma_minus=fpar.get("gamma.minus"),
    )
    omegas = np.ravel(value["omega"]).tolist()
    if sweep_omegas is None and len(omegas) != 1:
        raise DomainError("this command takes exactly one --omega value")
    return net, params, [CouplingSpec(value["coupling.strategy"], omega,
                                      fpar.get("closeness.file")) for omega in omegas]


def _check_drawn(args, spec, run: str) -> None:
    """A ``run`` that draws its couplings would discard a coupling file, and
    its drawn couplings carry no magnitudes for the explicit strategy."""
    if args.couplings_file:
        raise DomainError(f"{run} draws its couplings: --couplings-file would be discarded")
    if spec.strategy == "explicit":
        raise DomainError(f"{run} draws its couplings, which carry no magnitudes: "
                          "the explicit strategy would set every coupling to 0")


def _run_algorithm(name, net, spec, params, args, seed):
    if name == "mspec":
        return mspec_detect(
            net, spec, params,
            refine=not args.no_refine,
        )
    if name == "mlouv":
        return mlouv(net, spec, params, seed)
    if name == "smean":
        return smean_spec(net, spec, params, refine=not args.no_refine)
    if name == "sfull":
        return sfull_spec(net, spec, params, refine=not args.no_refine)
    raise DomainError(f"unknown algorithm {name!r}")


def _ensure_out(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _write_table(rows, header, csv_path, txt_path):
    """Emit a table as CSV plus an aligned plain-text rendering."""
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    str_rows = [header] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[c]) for r in str_rows) for c in range(len(header))]
    with open(txt_path, "w", encoding="utf-8") as fh:
        for row in str_rows:
            fh.write("  ".join(c.rjust(w) for c, w in zip(row, widths)).rstrip() + "\n")


# -- subcommands ---------------------------------------------------------------


def cmd_detect(args) -> int:
    if args.rho is not None and not 0.0 <= args.rho <= 1.0:
        raise DomainError(f"--rho must lie in [0, 1], got {args.rho}")
    net, params, (spec,) = _setup(args)
    if args.rho is not None:
        _check_drawn(args, spec, "--rho")
        net = net.with_couplings(generate_couplings(net, args.rho, args.seed))
    algorithm = args.algorithm or "mspec"
    out = _ensure_out(args)
    result = _run_algorithm(algorithm, net, spec, params, args, args.seed)
    path = os.path.join(out, f"result_{algorithm}.txt")
    save_result(result, path, net)
    print(f"algorithm={algorithm} Q={result.q_total!r} "
          f"communities={result.n_communities} result={path}")
    return 0


def cmd_sweep(args) -> int:
    if args.dataset is None and args.input is None and args.manifest is None:
        args.dataset = "karate-replica"
    net, params, specs = _setup(args, DEFAULT_OMEGAS)
    out = _ensure_out(args)
    runs_dir = os.path.join(out, "runs")
    os.makedirs(runs_dir, exist_ok=True)

    results = [_run_algorithm(args.algorithm or "mspec", net, spec, params, args,
                              _seed_for(args.seed, idx))
               for idx, spec in enumerate(specs)]

    labels_rows = []
    cells = [(i + 1, s + 1, v + 1)
             for v, aspect in enumerate(net.aspects)
             for s in range(len(aspect.layers))
             for i in range(net.n_nodes)]
    for x, (i, s, v) in enumerate(cells):
        row = [i, s, v] + [int(res.partition.labels[x]) + 1 for res in results]
        labels_rows.append(row)
    header = ["nodeId", "layerId", "aspectId"] + [f"omega={spec.omega:g}" for spec in specs]
    _write_table(labels_rows, header,
                 os.path.join(out, "sweep_labels.csv"),
                 os.path.join(out, "sweep_labels.txt"))

    summary = []
    for idx, (spec, res) in enumerate(zip(specs, results)):
        grid = res.partition.labels.reshape(net.n_cells, net.n_nodes)
        unanimous = (grid == grid[0]).all(axis=0)
        consistency = float(unanimous.mean())
        summary.append([f"{spec.omega:g}", repr(res.q_total), res.n_communities,
                        repr(consistency)])
        save_result(res, os.path.join(runs_dir, f"sweep_omega_{idx}.txt"), net)
    _write_table(summary, ["omega", "Q", "communities", "consistency"],
                 os.path.join(out, "sweep_summary.csv"),
                 os.path.join(out, "sweep_summary.txt"))
    print(f"sweep: {len(specs)} runs written under {out}")
    return 0


def cmd_compare(args) -> int:
    if args.repeats < 1:
        raise DomainError(f"--repeats must be >= 1, got {args.repeats}")
    rhos = tuple(args.rho) if args.rho else DEFAULT_RHOS
    for rho in rhos:
        if not 0.0 <= rho <= 1.0:
            raise DomainError(f"--rho values must lie in [0, 1], got {rho}")
    algorithms = tuple(args.algorithm) if args.algorithm else ALGORITHMS
    for name in algorithms:
        if algorithms.count(name) > 1:  # its runs would add into one row
            raise DomainError(f"--algorithm names {name} more than once")
    if args.dataset is None and args.input is None and args.manifest is None:
        args.dataset = "karate-replica"
    net, params, (spec,) = _setup(args)
    _check_drawn(args, spec, "compare")
    out = _ensure_out(args)
    runs_dir = os.path.join(out, "runs")
    os.makedirs(runs_dir, exist_ok=True)

    def grid_network(ri, rep):
        return net.with_couplings(generate_couplings(net, rhos[ri], _seed_for(args.seed, ri, rep)))

    # smean and sfull read no couplings: run on the first network, rescore on the rest
    first = grid_network(0, 0)
    blind = {name: _run_algorithm(name, first, spec, params, args, args.seed)
             for name in algorithms if name in ("smean", "sfull")}

    q_table = {name: np.zeros(len(rhos)) for name in algorithms}
    for ri in range(len(rhos)):
        for rep in range(args.repeats):
            coupled = first if (ri, rep) == (0, 0) else grid_network(ri, rep)
            for name in algorithms:
                if name not in blind:
                    result = _run_algorithm(name, coupled, spec, params, args,
                                            _seed_for(args.seed, ri, rep, ALGORITHMS.index(name)))
                elif coupled is first:
                    result = blind[name]
                else:
                    result = dataclasses.replace(blind[name], q_total=modularity(
                        coupled, spec, params, blind[name].partition))
                fname = f"compare_rho{ri}_rep{rep}_{name}.txt"
                save_result(result, os.path.join(runs_dir, fname), coupled)
                q_table[name][ri] += result.q_total / args.repeats

    table = []
    for name in algorithms:
        qs = q_table[name]
        table.append([name] + [repr(float(q)) for q in qs]
                     + [repr(float(np.var(qs))), repr(float(np.mean(qs)))])
    header = ["algorithm"] + [f"rho={r:g}" for r in rhos] + ["variance", "mean"]
    _write_table(table, header,
                 os.path.join(out, "compare.csv"),
                 os.path.join(out, "compare.txt"))
    print(f"compare: {len(rhos) * args.repeats} runs over {len(rhos)} densities written under {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlmod",
        description="Multilayer modularity detection, sweeps and comparisons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="run one algorithm at one parameter point")
    _add_common(p)
    p.add_argument("--algorithm", choices=ALGORITHMS, default="mspec")
    p.add_argument("--rho", type=float, help="generate couplings with this density first")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("sweep", help="one detection per coupling strength")
    _add_common(p)
    p.add_argument("--algorithm", choices=ALGORITHMS, default="mspec")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compare", help="algorithms across coupling densities")
    _add_common(p)
    p.add_argument("--algorithm", nargs="+", choices=ALGORITHMS,
                   help="algorithms to compare (default: all four)")
    p.add_argument("--rho", type=float, nargs="+",
                   help="coupling densities (default 0, 0.1, ..., 1)")
    p.add_argument("--repeats", type=int, default=1,
                   help="seeded coupling realizations per density")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MlmodError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
