"""Command-line front end: one subcommand per analysis."""

from __future__ import annotations

import argparse
import csv
import itertools
import math
import sys
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import genmodel, stats
from .corpus import Corpus, MelicError, parse_canonical, write_table
from .infotheory import Distribution, distribution_of, entropy, entropy_of, gini, mutual_information_excess
from .repetition import remove_repetition
from .seqmodel import within_corpus_repetition
from .viewpoints import ViewpointKind, extract_viewpoint, pairs_of


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
    return [_read_corpus(f) for f in files]


def _read_corpus(path: Path) -> Corpus:
    """The corpus in a canonical JSON file; an error in it names the file."""
    data = path.read_bytes()
    try:
        return parse_canonical(data)
    except MelicError as exc:
        raise MelicError(f"{path}: {exc}") from None


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
    for r, s in zip(rows, symbols):
        if not -(2**63) <= s < 2**63:
            raise MelicError(f"{path}: symbol must be a 64-bit integer, got {r['symbol']!r}")
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


def _each_melody(args, measures) -> list:
    """One row per melody of every corpus argument, in corpus order: the
    melody's id, then the rest of args.schema's columns, taken from the dict
    measures(melody). Melodies are skipped as _per_melody skips them."""
    columns = args.schema[1:]

    def row(m):
        values = measures(m)
        return {"id": m.id, **{c: values[c] for c in columns}}

    return [r for corpus in _load_corpora(args.corpus) for r in _per_melody(corpus, row)]


# --- per-melody measures: a command's schema picks its columns from these ---

def _entropy_measures(m, kind) -> dict:
    """Alphabet size A, entropy H and Gini coefficient G of a viewpoint."""
    d = distribution_of(extract_viewpoint(m, kind))
    return {"A": d.alphabet_size, "H": entropy(d), "G": gini(d)}


def _repetition_measures(m, kind, l_min) -> dict:
    """Length L, non-repeated length L_NR and the fraction 1 - L_NR/L of a
    viewpoint, with repeats of at least l_min symbols removed."""
    seq = extract_viewpoint(m, kind)
    l_nr = remove_repetition(seq, l_min).l_nr
    return {"L": len(seq), "L_NR": l_nr, "fraction": 1.0 - l_nr / len(seq)}


def _joint_measures(m) -> dict:
    """Entropy H_joint, length, non-repeated length L_NR and total information
    T = H_joint * L_NR of the joint chroma-duration sequence."""
    joint = extract_viewpoint(m, ViewpointKind.JOINT_CHROMA_DURATION)
    h = entropy_of(joint)
    l_nr = remove_repetition(joint).l_nr
    return {"H_joint": h, "length": len(joint), "L_NR": l_nr, "T": h * l_nr}


def _mi_measures(m, pitch_kind, rhythm_kind, n_shuffles, rng) -> dict:
    """Pitch-rhythm mutual information I, its shuffle-null mean I_ran and
    I_star = I - I_ran, over the shorter viewpoint's length."""
    seq_p = extract_viewpoint(m, pitch_kind)
    seq_r = extract_viewpoint(m, rhythm_kind)
    n = min(len(seq_p), len(seq_r))
    i_obs, i_ran, i_star = mutual_information_excess(
        seq_p.symbols[:n], seq_r.symbols[:n], n_shuffles=n_shuffles, rng=rng
    )
    return {"I": i_obs, "I_ran": i_ran, "I_star": i_star}


def _summary_values(m) -> tuple:
    """summary's per-melody values, in the order of its columns after corpus."""
    return (
        _entropy_measures(m, ViewpointKind.CHROMA)["H"],
        _entropy_measures(m, ViewpointKind.DURATION)["H"],
        *itemgetter("H_joint", "length", "L_NR", "T")(_joint_measures(m)),
    )


# --- subcommands: each returns its rows, which main writes ------------------

def cmd_viewpoints(args):
    return _each_melody(
        args, lambda m: {"symbols": " ".join(_sym_str(s) for s in extract_viewpoint(m, args.kind).symbols)}
    )


def cmd_entropy(args):  # entropy and gini, whose schemas differ
    return _each_melody(args, lambda m: _entropy_measures(m, args.viewpoint))


def cmd_mi(args):
    if args.shuffles < 0:
        raise MelicError(f"--shuffles must be >= 0, got {args.shuffles}")
    rng = np.random.default_rng(args.seed)
    # every melody draws its shuffles from the one rng stream, in corpus order
    return _each_melody(args, lambda m: _mi_measures(m, args.viewpoint, args.rhythm_kind, args.shuffles, rng))


def cmd_repetition(args):
    if args.lmin < 2:
        raise MelicError(f"--lmin must be >= 2, got {args.lmin}")
    return _each_melody(args, lambda m: _repetition_measures(m, args.viewpoint, args.lmin))


def cmd_totalinfo(args):
    return _each_melody(args, _joint_measures)


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
    logl = {} if emp is None else genmodel.scale_loglikelihood(sim, emp, alpha=args.alpha, threads=args.threads)
    rows = []
    for a in sorted(sim.per_a):
        n, p = int(sim.per_a[a].size), probs[a]
        se = math.sqrt(p * (1 - p) / n) if n >= 2 else None  # binomial standard error of P_below
        rows.append({"A": a, "n_samples": n, "P_below": p, "P_below_se": se, "logL": logl.get(a)})
    return rows


def _fit(args, spec, grids, kind, statistic, undefined: str, worst: float) -> tuple:
    """Best spec of the --model family over the product of the grid lists, and
    its JSD, fitted to statistic(symbols of kind) per melody (None skips it
    as undefined). The grid and --n-per-setting are checked before any melody.
    Warns when grid points tie at the best JSD or the best is the worst JSD."""
    grid = [spec(args.model[:-1], int(args.model[-1]), *point) for point in itertools.product(*grids)]
    genmodel.check_fit(grid, args.n_per_setting)

    def one(m):
        value = statistic(extract_viewpoint(m, kind).symbols)
        if value is None:
            raise MelicError(undefined)
        return value

    empirical = [v for corpus in _load_corpora(args.corpus) for v in _per_melody(corpus, one)]
    best, score, ties = genmodel.fit_generative_model(empirical, grid, n_per_setting=args.n_per_setting, seed=args.seed)
    where = f"warning: genmodel {args.genmodel_command}:"
    if ties > 1:
        print(f"{where} {ties} of {len(grid)} grid points tie at the best JSD; the first is reported", file=sys.stderr)
    if score == worst:
        print(f"{where} the best JSD is the objective's maximum, {worst:g}: no grid point fits", file=sys.stderr)
    return best, score


def cmd_genmodel_pitch(args):
    grids = (args.grid_a, args.grid_l, args.grid_o, args.grid_exp)
    why = "H(Chroma) is 0, so H(M-Int)/H(Chroma) is undefined"
    best, score = _fit(args, genmodel.PitchModelSpec, grids, ViewpointKind.PITCH, genmodel.pitch_ratios, why, genmodel.PITCH_JSD_MAX)
    return [{"model": best.name, "A": best.a, "L": best.length, "O": best.o, "exponent": best.exponent, "JSD": score}]


def cmd_genmodel_rhythm(args):
    grids = (args.grid_a, args.grid_l, args.grid_exp)
    why = "H(IOI) is 0, so H(IOI-ratio)/H(IOI) is undefined"
    def rhythm_pair(iois):  # a melody's IOIs as the reduced pairs a model draws
        return genmodel.rhythm_pair(pairs_of(iois))

    best, score = _fit(args, genmodel.RhythmModelSpec, grids, ViewpointKind.IOI, rhythm_pair, why, genmodel.RHYTHM_JSD_MAX)
    return [{"model": best.name, "A": best.a, "L": best.length, "exponent": best.exponent, "JSD": score}]


def cmd_similarity(args):
    query_corpus = _read_corpus(Path(args.query))
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
    records = []
    for corpus in sorted(_load_corpora(args.corpus), key=lambda c: c.meta.corpus_id):
        if rows := _per_melody(corpus, _summary_values):
            means = (float(np.mean(column)) for column in zip(*rows))
            records.append({"corpus": corpus.meta.corpus_id, **dict(zip(args.schema[1:], means))})
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
    p.set_defaults(func=cmd_entropy, schema=["id", "A", "H"])

    p = sub.add_parser("gini", help="per-melody entropy and Gini coefficient")
    p.add_argument("--viewpoint", type=ViewpointKind, default="chroma")
    _add_common(p)
    p.set_defaults(func=cmd_entropy, schema=["id", "A", "H", "G"])

    p = sub.add_parser("mi", help="pitch-rhythm mutual information with shuffle null")
    p.add_argument("--viewpoint", type=ViewpointKind, default="chroma", help="pitch viewpoint")
    p.add_argument("--rhythm-kind", type=ViewpointKind, default="duration")
    p.add_argument("--shuffles", type=int, default=10)
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_mi, schema=["id", "I", "I_ran", "I_star"])

    p = sub.add_parser("repetition", help="recursive repeated-substring removal")
    p.add_argument("--viewpoint", type=ViewpointKind, default="chroma")
    p.add_argument("--lmin", type=int, default=2)
    _add_common(p)
    p.set_defaults(func=cmd_repetition, schema=["id", "L", "L_NR", "fraction"])

    p = sub.add_parser("totalinfo", help="joint entropy times non-repeated length")
    _add_common(p)
    p.set_defaults(func=cmd_totalinfo, schema=["id", "H_joint", "L_NR", "T"])

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
    p.set_defaults(
        func=cmd_summary,
        schema=["corpus", "H_chroma", "H_dur", "H_chroma_dur", "mean_length", "mean_L_NR", "mean_T"],
    )

    return parser


def main(argv=None) -> int:
    """Run one command and write its rows; a missing or unknown option is
    argparse's usage error (SystemExit 2), and a bad input (a MelicError,
    an OSError or an argparse error) one `error:` line and exit 1. Any other
    exception is a melic bug, so it is not dressed as an `error:` line."""
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
    except (argparse.ArgumentError, MelicError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
