"""Command-line front end: one subcommand per analysis."""

from __future__ import annotations

import argparse
import csv
import itertools
import math
import sys
from pathlib import Path

import numpy as np

from . import genmodel, stats
from .corpus import Corpus, MelicError, parse_canonical, write_table
from .infotheory import Distribution, distribution_of, entropy, entropy_of, gini, mutual_information_excess
from .repetition import joint_information, remove_repetition
from .seqmodel import within_corpus_repetition
from .viewpoints import ViewpointKind, extract_viewpoint


def _per_melody(corpus: Corpus, fn) -> list:
    """fn over the corpus's melodies, in order, leaving out each melody whose
    fn raises MelicError; each skip and the total are reported on stderr."""
    rows, skips = [], []
    for m in corpus.melodies:
        try:
            rows.append(fn(m))
        except MelicError as exc:
            skips.append((m.id, exc))
    _report_skips(corpus, skips)
    return rows


def _report_skips(corpus: Corpus, skips: list[tuple[str, object]]) -> None:
    """One stderr warning per (melody id, reason), then the total."""
    cid = corpus.meta.corpus_id
    for mid, reason in skips:
        print(f"warning: corpus {cid!r} melody {mid!r} skipped: {reason}", file=sys.stderr)
    if skips:
        print(f"warning: corpus {cid!r}: {len(skips)} melodies skipped", file=sys.stderr)


def _load_corpora(paths: list[str]) -> list[Corpus]:
    files: list[Path] = []
    for p in paths:
        path = Path(p)
        if path.is_dir():
            files.extend(sorted(path.glob("*.json")))
        else:
            files.append(path)
    if not files:
        raise MelicError("no corpus files given")
    return [parse_canonical(f.read_bytes()) for f in files]


def _read_csv(path: str, columns: tuple[str, ...]) -> list[dict]:
    """The rows of a CSV file with the given columns; a file that cannot be
    decoded or parsed is an error that names it."""
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh, restval="")
            for col in columns:
                if col not in (reader.fieldnames or ()):
                    raise MelicError(f"{path}: missing column {col!r}")
            return list(reader)
    except (csv.Error, UnicodeDecodeError) as exc:
        raise MelicError(f"{path}: {exc}") from None


def _cell(path: str, row: dict, column: str, convert=float, finite: bool = True):
    """One CSV cell as convert(cell); a cell it cannot convert, or where
    finite is set a number that is not finite, is an error that names the
    file and the column."""
    what = "an integer" if convert is int else "a finite number" if finite else "a number"
    try:
        value = convert(row[column])
        if finite and not math.isfinite(value):
            raise ValueError(value)
    except ValueError:
        raise MelicError(f"{path}: {column} must be {what}, got {row[column]!r}") from None
    return value


def _load_means(path: str) -> list[stats.CorpusMeans]:
    rows = _read_csv(path, ("corpus_id", "H_chroma", "H_duration", "I_chroma_duration"))
    return [
        stats.CorpusMeans(
            corpus_id=r["corpus_id"],
            h_chroma=_cell(path, r, "H_chroma"),
            h_duration=_cell(path, r, "H_duration"),
            i_chroma_duration=_cell(path, r, "I_chroma_duration"),
            region=r.get("region", ""),
        )
        for r in rows
    ]


def _load_distribution(path: str) -> Distribution:
    rows = _read_csv(path, ("symbol", "probability"))
    symbols = [_cell(path, r, "symbol", int) for r in rows]
    # a probability that is not finite fails the sum check below
    probs = np.array([_cell(path, r, "probability", finite=False) for r in rows])
    total = probs.sum()
    if (probs < 0).any() or not (np.isfinite(total) and total > 0):
        raise MelicError(f"{path}: probabilities must be non-negative with a finite, positive sum")
    probs = probs / total
    order = np.argsort(symbols)
    return Distribution(
        alphabet=tuple(symbols[i] for i in order), probs=tuple(float(probs[i]) for i in order)
    )


def _sym_str(s) -> str:
    if isinstance(s, tuple):
        return ":".join(str(x) for x in s)
    return str(s)


def _each_melody(args, fn) -> list:
    """_per_melody over every corpus argument, rows in corpus order."""
    return [r for corpus in _load_corpora(args.corpus) for r in _per_melody(corpus, fn)]


# --- subcommands: each returns its rows, which main writes ------------------

def cmd_viewpoints(args):
    def one(m):
        seq = extract_viewpoint(m, args.kind)
        return {"id": m.id, "symbols": " ".join(_sym_str(s) for s in seq.symbols)}

    return _each_melody(args, one)


def cmd_entropy(args, with_gini=False):
    def one(m):
        d = distribution_of(extract_viewpoint(m, args.viewpoint))
        row = {"id": m.id, "A": d.alphabet_size, "H": entropy(d)}
        if with_gini:
            row["G"] = gini(d)
        return row

    return _each_melody(args, one)


def cmd_gini(args):
    return cmd_entropy(args, with_gini=True)


def cmd_mi(args):
    if args.shuffles < 0:
        raise MelicError(f"--shuffles must be >= 0, got {args.shuffles}")
    rng = np.random.default_rng(args.seed)

    def one(m):
        seq_p = extract_viewpoint(m, args.viewpoint)
        seq_r = extract_viewpoint(m, args.rhythm_kind)
        n = min(len(seq_p), len(seq_r))
        i_obs, i_ran, i_star = mutual_information_excess(
            seq_p.symbols[:n], seq_r.symbols[:n], n_shuffles=args.shuffles, rng=rng
        )
        return {"id": m.id, "I": i_obs, "I_ran": i_ran, "I_star": i_star}

    # every melody draws its shuffles from the one rng stream, in corpus order
    return _each_melody(args, one)


def cmd_repetition(args):
    if args.lmin < 2:
        raise MelicError(f"--lmin must be >= 2, got {args.lmin}")

    def one(m):
        seq = extract_viewpoint(m, args.viewpoint)
        res = remove_repetition(seq, args.lmin)
        return {
            "id": m.id,
            "L": len(seq.symbols),
            "L_NR": res.l_nr,
            "fraction": 1.0 - res.l_nr / len(seq.symbols),
        }

    return _each_melody(args, one)


def cmd_totalinfo(args):
    def one(m):
        h, l_nr, _ = joint_information(m)
        return {"id": m.id, "H_joint": h, "L_NR": l_nr, "T": h * l_nr}

    return _each_melody(args, one)


def cmd_ppm_repetition(args):
    records = []
    for corpus in _load_corpora(args.corpus):
        res = within_corpus_repetition(
            corpus,
            kind=args.viewpoint,
            n_train=args.n_train,
            truncate=args.truncate,
            n_shuffle_reps=args.shuffle_reps,
            max_order=args.max_order,
            seed=args.seed,
        )
        _report_skips(corpus, list(res.left_out))
        records.append(
            {
                "corpus": corpus.meta.corpus_id,
                "mean_IC": res.mean_ic,
                "mean_IC_r": res.mean_ic_r,
                "repetition_bits": res.repetition_bits,
            }
        )
    return records


def cmd_genmodel_scale(args):
    genmodel.check_alpha(args.alpha)
    if not math.isfinite(args.threshold):
        raise MelicError(f"--threshold must be finite, got {args.threshold}")
    interval_dist = _load_distribution(args.intervals)
    length_dist = _load_distribution(args.lengths)
    emp = None
    if args.empirical_h:  # read, and checked to be a sample the KDE can use, before any walk
        emp = [_cell(args.empirical_h, r, "H") for r in _read_csv(args.empirical_h, ("H",))]
        stats.silverman_bandwidth(np.array(emp))
    sim = genmodel.simulate_scale_entropy(
        interval_dist, length_dist, args.o_values, args.n, seed=args.seed, threads=args.threads
    )
    why = "(no legal interval inside the pitch window)"
    if sim.n_failed == args.n:
        raise MelicError(f"genmodel scale: all {args.n} walks failed {why}")
    if sim.n_failed:
        print(f"warning: genmodel scale: {sim.n_failed} of {args.n} walks failed {why}", file=sys.stderr)
    probs = genmodel.prob_entropy_below(sim, args.threshold)
    logl = {} if emp is None else genmodel.scale_loglikelihood(sim, emp, alpha=args.alpha)
    return [
        {"A": a, "n_samples": int(sim.per_a[a].size), "P_below": probs[a], "logL": logl.get(a)}
        for a in sorted(sim.per_a)
    ]


def _fit(args, spec, grids, kinds, statistic, undefined: str) -> tuple:
    """Best spec of the --model family over the product of the grid lists, and
    its JSD, fitted to statistic(*symbols of kinds) per melody (None skips it
    as undefined). The grid and --n-per-setting are checked before any melody."""
    grid = [spec(args.model[:-1], int(args.model[-1]), *point) for point in itertools.product(*grids)]
    genmodel.check_fit(grid, args.n_per_setting)

    def one(m):
        value = statistic(*(extract_viewpoint(m, k).symbols for k in kinds))
        if value is None:
            raise MelicError(undefined)
        return value

    empirical = _each_melody(args, one)
    return genmodel.fit_generative_model(empirical, grid, n_per_setting=args.n_per_setting, seed=args.seed)


def cmd_genmodel_pitch(args):
    grids = (args.grid_a, args.grid_l, args.grid_o, args.grid_exp)
    kinds = (ViewpointKind.PITCH,)
    why = "H(Chroma) is 0, so H(M-Int)/H(Chroma) is undefined"
    best, score = _fit(args, genmodel.PitchModelSpec, grids, kinds, genmodel.pitch_ratios, why)
    return [{"model": best.name, "A": best.a, "L": best.length, "O": best.o, "exponent": best.exponent, "JSD": score}]


def cmd_genmodel_rhythm(args):
    grids = (args.grid_a, args.grid_l, args.grid_exp)
    kinds = (ViewpointKind.IOI, ViewpointKind.IOI_RATIO)
    why = "H(IOI) is 0, so H(IOI-ratio)/H(IOI) is undefined"
    best, score = _fit(args, genmodel.RhythmModelSpec, grids, kinds, genmodel.rhythm_pair, why)
    return [{"model": best.name, "A": best.a, "L": best.length, "exponent": best.exponent, "JSD": score}]


def cmd_similarity(args):
    query_corpus = parse_canonical(Path(args.query).read_bytes())
    query = extract_viewpoint(query_corpus.melodies[0], args.viewpoint)
    stats.ngram_query(query, args.n)  # checked before any corpus is read
    records = []
    for corpus in _load_corpora(args.corpus):
        targets = _per_melody(corpus, lambda m: extract_viewpoint(m, args.viewpoint).symbols)
        rep = stats.ngram_similarity(query, targets, n=args.n)
        records.append(
            {
                "corpus": corpus.meta.corpus_id,
                "n_matches": rep.n_matches,
                "expected_paper": rep.expected_paper,
                "expected_fixed_query": rep.expected_fixed_query,
                "enrichment": rep.enrichment,
            }
        )
    return records


def cmd_null_joint(args):
    means = _load_means(args.means)
    rng = np.random.default_rng(args.seed)
    res = stats.joint_entropy_null(means, n_samples=args.samples, rng=rng)
    return [
        {
            "null_variance": res.null_variance,
            "empirical_variance": res.empirical_variance,
            "ratio": res.ratio,
            "degenerate": res.degenerate,
        }
    ]


def cmd_subsample_corr(args):
    means = _load_means(args.means)
    rng = np.random.default_rng(args.seed)
    mean_r, (lo, hi) = stats.region_balanced_correlation(
        means, args.max_per_region, n_resamples=args.resamples, rng=rng
    )
    return [{"mean_r": mean_r, "ci_low": lo, "ci_high": hi}]


def cmd_summary(args):
    def one(m):
        h_chroma = entropy_of(extract_viewpoint(m, ViewpointKind.CHROMA))
        h_dur = entropy_of(extract_viewpoint(m, ViewpointKind.DURATION))
        h_joint, l_nr, length = joint_information(m)
        return {
            "H_chroma": h_chroma,
            "H_dur": h_dur,
            "H_chroma_dur": h_joint,
            "length": length,
            "L_NR": l_nr,
            "T": h_joint * l_nr,
        }

    records = []
    for corpus in sorted(_load_corpora(args.corpus), key=lambda c: c.meta.corpus_id):
        rows = _per_melody(corpus, one)
        if not rows:
            continue
        records.append(
            {
                "corpus": corpus.meta.corpus_id,
                "H_chroma": float(np.mean([r["H_chroma"] for r in rows])),
                "H_dur": float(np.mean([r["H_dur"] for r in rows])),
                "H_chroma_dur": float(np.mean([r["H_chroma_dur"] for r in rows])),
                "mean_length": float(np.mean([r["length"] for r in rows])),
                "mean_L_NR": float(np.mean([r["L_NR"] for r in rows])),
                "mean_T": float(np.mean([r["T"] for r in rows])),
            }
        )
    return records


# --- parser ----------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Raises argparse.ArgumentError for a value it cannot convert or an
    unknown choice, so that main reports it as one `error:` line; subparsers
    are built from the same class."""

    def __init__(self, **kwargs):
        super().__init__(exit_on_error=False, **kwargs)


def _list_of(convert):
    """argparse type for a comma-separated list, such as '3,5,7'."""

    def parse(text: str) -> list:
        return [convert(x) for x in text.split(",")]

    parse.__name__ = f"{convert.__name__} list"  # argparse names the type in its message
    return parse


_ints, _floats = _list_of(int), _list_of(float)


def _add_common(p, corpus=True, seed=False):
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", default=None)
    p.add_argument("--threads", type=int, default=1, help="threads for genmodel scale")
    if seed:
        p.add_argument("--seed", type=int, required=True, help="required: randomized outputs must be citable")
    if corpus:
        p.add_argument("corpus", nargs="+", help="canonical corpus files or directories")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="melic", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("viewpoints", help="per-melody viewpoint symbol lists")
    p.add_argument("--kind", type=ViewpointKind, default="chroma")
    _add_common(p)
    p.set_defaults(func=cmd_viewpoints, schema=["id", "symbols"])

    p = sub.add_parser("entropy", help="per-melody alphabet size and entropy")
    p.add_argument("--viewpoint", type=ViewpointKind, default="chroma")
    _add_common(p)
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("gini", help="per-melody entropy and Gini coefficient")
    p.add_argument("--viewpoint", type=ViewpointKind, default="chroma")
    _add_common(p)
    p.set_defaults(func=cmd_gini)

    p = sub.add_parser("mi", help="pitch-rhythm mutual information with shuffle null")
    p.add_argument("--viewpoint", type=ViewpointKind, default="chroma", help="pitch viewpoint")
    p.add_argument("--rhythm-kind", type=ViewpointKind, default="duration")
    p.add_argument("--shuffles", type=int, default=10)
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_mi)

    p = sub.add_parser("repetition", help="recursive repeated-substring removal")
    p.add_argument("--viewpoint", type=ViewpointKind, default="chroma")
    p.add_argument("--lmin", type=int, default=2)
    _add_common(p)
    p.set_defaults(func=cmd_repetition)

    p = sub.add_parser("totalinfo", help="joint entropy times non-repeated length")
    _add_common(p)
    p.set_defaults(func=cmd_totalinfo)

    p = sub.add_parser("ppm-repetition", help="PPM within-corpus repetition")
    p.add_argument("--viewpoint", type=ViewpointKind, default="mint")
    p.add_argument("--n-train", type=int, default=10)
    p.add_argument("--truncate", type=int, default=50)
    p.add_argument("--shuffle-reps", type=int, default=10)
    p.add_argument("--max-order", type=int, default=5)
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_ppm_repetition)

    pg = sub.add_parser("genmodel", help="generative sequence models")
    gsub = pg.add_subparsers(dest="genmodel_command", required=True)

    p = gsub.add_parser("scale", help="scale-degree entropy simulation")
    p.add_argument("--intervals", required=True, help="CSV symbol,probability")
    p.add_argument("--lengths", required=True, help="CSV symbol,probability")
    p.add_argument("--n", type=int, default=100000)
    p.add_argument("--o-values", type=_floats, default="0.5,1,1.5,2")
    p.add_argument("--threshold", type=float, default=2.8)
    p.add_argument("--alpha", type=float, default=0.999)
    p.add_argument("--empirical-h", default=None, help="CSV with column H for log-likelihoods")
    _add_common(p, corpus=False, seed=True)
    p.set_defaults(func=cmd_genmodel_scale)

    p = gsub.add_parser("pitch", help="fit a pitch-sequence model family")
    p.add_argument("--model", required=True, choices=[f"{f}{d}" for f in genmodel.PITCH_FAMILIES for d in "123"])
    p.add_argument("--grid-a", type=_ints, default="3,5,7,9,12")
    p.add_argument("--grid-l", type=_ints, default="15,30,50")
    p.add_argument("--grid-o", type=_floats, default="1,2,3")
    p.add_argument("--grid-exp", type=_floats, default="1,2,3")
    p.add_argument("--n-per-setting", type=int, default=100)
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_genmodel_pitch)

    p = gsub.add_parser("rhythm", help="fit a rhythm-sequence model family")
    p.add_argument("--model", required=True, choices=[f"{v}{d}" for v in genmodel.RHYTHM_VALUE_SETS for d in "1234"])
    p.add_argument("--grid-a", type=_ints, default="3,5,7")
    p.add_argument("--grid-l", type=_ints, default="15,30,50")
    p.add_argument("--grid-exp", type=_floats, default="1,2,3")
    p.add_argument("--n-per-setting", type=int, default=100)
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_genmodel_rhythm)

    p = sub.add_parser("similarity", help="n-gram melodic similarity vs chance")
    p.add_argument("--query", required=True, help="canonical corpus file; first melody is the query")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--viewpoint", type=ViewpointKind, default="mint")
    _add_common(p)
    p.set_defaults(func=cmd_similarity)

    p = sub.add_parser("null-joint", help="joint-entropy null model over corpus means")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("means", help="CSV of per-corpus means")
    _add_common(p, corpus=False, seed=True)
    p.set_defaults(func=cmd_null_joint)

    p = sub.add_parser("subsample-corr", help="region-balanced entropy correlation")
    p.add_argument("--max-per-region", type=int, required=True)
    p.add_argument("--resamples", type=int, default=1000)
    p.add_argument("means", help="CSV of per-corpus means")
    _add_common(p, corpus=False, seed=True)
    p.set_defaults(func=cmd_subsample_corr)

    p = sub.add_parser("summary", help="per-corpus information summary table")
    _add_common(p)
    p.set_defaults(func=cmd_summary)

    return parser


def main(argv=None) -> int:
    """Run one command and write its rows; a missing or unknown option is
    argparse's usage error (SystemExit 2), every other failure one `error:`
    line and exit 1."""
    try:
        args = build_parser().parse_args(argv)
        if args.threads < 1:  # every command accepts --threads; only genmodel scale runs threads
            raise MelicError(f"--threads must be >= 1, got {args.threads}")
        if "seed" in args and args.seed < 0:  # checked before any input is read
            raise MelicError(f"--seed must be >= 0, got {args.seed}")
        data = write_table(args.func(args), format=args.format, schema=getattr(args, "schema", None))
        if args.out:
            Path(args.out).write_bytes(data)
        else:
            sys.stdout.buffer.write(data)
    except (argparse.ArgumentError, MelicError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
