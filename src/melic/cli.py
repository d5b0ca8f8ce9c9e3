"""Command-line front end: one subcommand per analysis."""

from __future__ import annotations

import argparse
import csv
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import genmodel, stats
from .corpus import Corpus, CorpusError, MelicError, parse_canonical, write_table
from .infotheory import Distribution, distribution_of, entropy, gini, mutual_information_excess
from .repetition import joint_information, remove_repetition
from .seqmodel import within_corpus_repetition
from .viewpoints import ViewpointKind, extract_viewpoint


def _threads(args) -> int:
    if args.threads is not None:
        return args.threads
    env = os.environ.get("MELIC_THREADS")
    return int(env) if env else 1


def parallel_map(fn, items, threads: int):
    if threads <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _per_melody(corpus: Corpus, fn, threads: int = 1) -> list:
    """fn over the corpus's melodies, in order, leaving out each melody whose
    fn raises MelicError; each skip and the total are reported on stderr."""

    def guarded(m):
        try:
            return True, fn(m)
        except MelicError as exc:
            return False, exc

    rows, skips = [], []
    for m, (ok, value) in zip(corpus.melodies, parallel_map(guarded, corpus.melodies, threads)):
        if ok:
            rows.append(value)
        else:
            skips.append((m.id, value))
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
        raise CorpusError("no corpus files given")
    return [parse_canonical(f.read_bytes()) for f in files]


def _read_csv(path: str, columns: tuple[str, ...]) -> list[dict]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh, restval="")
        for col in columns:
            if col not in (reader.fieldnames or ()):
                raise CorpusError(f"{path}: missing column {col!r}")
        return list(reader)


def _load_means(path: str) -> list[stats.CorpusMeans]:
    rows = _read_csv(path, ("corpus_id", "H_chroma", "H_duration", "I_chroma_duration"))
    return [
        stats.CorpusMeans(
            corpus_id=r["corpus_id"],
            h_chroma=float(r["H_chroma"]),
            h_duration=float(r["H_duration"]),
            i_chroma_duration=float(r["I_chroma_duration"]),
            region=r.get("region", ""),
            type=r.get("type", "Folk"),
        )
        for r in rows
    ]


def _load_distribution(path: str) -> Distribution:
    rows = _read_csv(path, ("symbol", "probability"))
    symbols = [int(r["symbol"]) for r in rows]
    probs = np.array([float(r["probability"]) for r in rows])
    total = probs.sum()
    if (probs < 0).any() or not (np.isfinite(total) and total > 0):
        raise CorpusError(f"{path}: probabilities must be non-negative with a finite, positive sum")
    probs = probs / total
    order = np.argsort(symbols)
    return Distribution(
        alphabet=tuple(symbols[i] for i in order), probs=tuple(float(probs[i]) for i in order)
    )


def _emit(args, records: list[dict], schema: list[str] | None = None) -> None:
    data = write_table(records, format=args.format, schema=schema)
    if args.out:
        Path(args.out).write_bytes(data)
    else:
        sys.stdout.buffer.write(data)


def _sym_str(s) -> str:
    if isinstance(s, tuple):
        return ":".join(str(x) for x in s)
    return str(s)


# --- subcommands -----------------------------------------------------------

def cmd_viewpoints(args):
    kind = ViewpointKind(args.kind)

    def one(m):
        seq = extract_viewpoint(m, kind)
        return {"id": m.id, "symbols": " ".join(_sym_str(s) for s in seq.symbols)}

    records = [r for corpus in _load_corpora(args.corpus) for r in _per_melody(corpus, one)]
    _emit(args, records, schema=["id", "symbols"])


def cmd_entropy(args, with_gini=False):
    kind = ViewpointKind(args.viewpoint)

    def one(m):
        d = distribution_of(extract_viewpoint(m, kind))
        row = {"id": m.id, "A": d.alphabet_size, "H": entropy(d)}
        if with_gini:
            row["G"] = gini(d)
        return row

    records = [r for corpus in _load_corpora(args.corpus) for r in _per_melody(corpus, one)]
    _emit(args, records)


def cmd_gini(args):
    cmd_entropy(args, with_gini=True)


def cmd_mi(args):
    if args.shuffles < 0:
        raise MelicError(f"--shuffles must be >= 0, got {args.shuffles}")
    pkind = ViewpointKind(args.viewpoint)
    rkind = ViewpointKind(args.rhythm_kind)
    rng = np.random.default_rng(args.seed)

    def one(m):
        seq_p = extract_viewpoint(m, pkind)
        seq_r = extract_viewpoint(m, rkind)
        n = min(len(seq_p), len(seq_r))
        i_obs, i_ran, i_star = mutual_information_excess(
            seq_p.symbols[:n], seq_r.symbols[:n], n_shuffles=args.shuffles, rng=rng
        )
        return {"id": m.id, "I": i_obs, "I_ran": i_ran, "I_star": i_star}

    # sequential: every melody draws its shuffles from the one rng stream
    records = [r for corpus in _load_corpora(args.corpus) for r in _per_melody(corpus, one)]
    _emit(args, records)


def cmd_repetition(args):
    if args.lmin < 2:
        raise MelicError(f"--lmin must be >= 2, got {args.lmin}")
    kind = ViewpointKind(args.viewpoint)
    threads = _threads(args)

    def one(m):
        seq = extract_viewpoint(m, kind)
        res = remove_repetition(seq, args.lmin)
        return {
            "id": m.id,
            "L": len(seq.symbols),
            "L_NR": res.l_nr,
            "fraction": 1.0 - res.l_nr / len(seq.symbols),
        }

    records = [r for corpus in _load_corpora(args.corpus) for r in _per_melody(corpus, one, threads)]
    _emit(args, records)


def cmd_totalinfo(args):
    threads = _threads(args)

    def one(m):
        h, l_nr, _ = joint_information(m)
        return {"id": m.id, "H_joint": h, "L_NR": l_nr, "T": h * l_nr}

    records = [r for corpus in _load_corpora(args.corpus) for r in _per_melody(corpus, one, threads)]
    _emit(args, records)


def cmd_ppm_repetition(args):
    kind = ViewpointKind(args.viewpoint)
    records = []
    for corpus in _load_corpora(args.corpus):
        res = within_corpus_repetition(
            corpus,
            kind=kind,
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
    _emit(args, records)


def cmd_genmodel_scale(args):
    interval_dist = _load_distribution(args.intervals)
    length_dist = _load_distribution(args.lengths)
    o_values = [float(x) for x in args.o_values.split(",")]
    sim = genmodel.simulate_scale_entropy(
        interval_dist, length_dist, o_values, args.n, seed=args.seed, threads=_threads(args)
    )
    why = "(no legal interval inside the pitch window)"
    if sim.n_failed == args.n:
        raise genmodel.GenModelError(f"genmodel scale: all {args.n} walks failed {why}")
    if sim.n_failed:
        print(f"warning: genmodel scale: {sim.n_failed} of {args.n} walks failed {why}", file=sys.stderr)
    probs = genmodel.prob_entropy_below(sim, args.threshold)
    logl: dict[int, float] = {}
    if args.empirical_h:
        emp = [float(r["H"]) for r in _read_csv(args.empirical_h, ("H",))]
        logl = genmodel.scale_loglikelihood(sim, emp, alpha=args.alpha)
    records = []
    for a in sorted(sim.per_a):
        records.append(
            {
                "A": a,
                "n_samples": int(sim.per_a[a].size),
                "P_below": probs[a],
                "logL": logl.get(a),
            }
        )
    _emit(args, records)


def _entropies(m, *kinds) -> list[float]:
    return [entropy(distribution_of(extract_viewpoint(m, k))) for k in kinds]


def cmd_genmodel_pitch(args):
    def one(m):
        return _entropies(m, ViewpointKind.CHROMA, ViewpointKind.MINT, ViewpointKind.SINT)

    mint_ratio, sint_ratio = [], []
    for corpus in _load_corpora(args.corpus):
        for hc, hm, hs in _per_melody(corpus, one):
            if hc > 0:
                mint_ratio.append(hm / hc)
                sint_ratio.append(hs / hc)
    family, dist = args.model[:-1], int(args.model[-1])
    grid = [
        genmodel.PitchModelSpec(family=family, dist=dist, a=a, length=length, o=o, exponent=exp)
        for a in [int(x) for x in args.grid_a.split(",")]
        for length in [int(x) for x in args.grid_l.split(",")]
        for o in [float(x) for x in args.grid_o.split(",")]
        for exp in [float(x) for x in args.grid_exp.split(",")]
    ]
    best, score = genmodel.fit_generative_model(
        "pitch",
        {"mint_ratio": mint_ratio, "sint_ratio": sint_ratio},
        grid,
        n_per_setting=args.n_per_setting,
        seed=args.seed,
    )
    _emit(
        args,
        [
            {
                "model": best.name,
                "A": best.a,
                "L": best.length,
                "O": best.o,
                "exponent": best.exponent,
                "JSD": score,
            }
        ],
    )


def cmd_genmodel_rhythm(args):
    def one(m):
        ioi = extract_viewpoint(m, ViewpointKind.IOI)
        ratio = extract_viewpoint(m, ViewpointKind.IOI_RATIO)
        hi = entropy(distribution_of(ioi))
        # H(IOI) > 0 needs two distinct IOIs, so the ratio sequence is non-empty
        return (hi, entropy(distribution_of(ratio)) / hi) if hi > 0 else None

    pairs = [p for corpus in _load_corpora(args.corpus) for p in _per_melody(corpus, one) if p is not None]
    value_set, dist = args.model[:-1], int(args.model[-1])
    grid = [
        genmodel.RhythmModelSpec(value_set=value_set, dist=dist, a=a, length=length, exponent=exp)
        for a in [int(x) for x in args.grid_a.split(",")]
        for length in [int(x) for x in args.grid_l.split(",")]
        for exp in [float(x) for x in args.grid_exp.split(",")]
    ]
    best, score = genmodel.fit_generative_model(
        "rhythm", {"ioi_pairs": pairs}, grid, n_per_setting=args.n_per_setting, seed=args.seed
    )
    _emit(
        args,
        [{"model": best.name, "A": best.a, "L": best.length, "exponent": best.exponent, "JSD": score}],
    )


def cmd_similarity(args):
    kind = ViewpointKind(args.viewpoint)
    query_corpus = parse_canonical(Path(args.query).read_bytes())
    query = extract_viewpoint(query_corpus.melodies[0], kind)
    records = []
    for corpus in _load_corpora(args.corpus):
        rep = stats.ngram_similarity(query, corpus, n=args.n, kind=kind)
        records.append(
            {
                "corpus": corpus.meta.corpus_id,
                "n_matches": rep.n_matches,
                "expected_paper": rep.expected_paper,
                "expected_fixed_query": rep.expected_fixed_query,
                "enrichment": rep.enrichment,
            }
        )
    _emit(args, records)


def cmd_null_joint(args):
    means = _load_means(args.means)
    rng = np.random.default_rng(args.seed)
    res = stats.joint_entropy_null(means, n_samples=args.samples, rng=rng)
    _emit(
        args,
        [
            {
                "null_variance": res.null_variance,
                "empirical_variance": res.empirical_variance,
                "ratio": res.ratio,
                "degenerate": res.degenerate,
            }
        ],
    )


def cmd_subsample_corr(args):
    means = _load_means(args.means)
    rng = np.random.default_rng(args.seed)
    mean_r, (lo, hi) = stats.region_balanced_correlation(
        means, args.max_per_region, n_resamples=args.resamples, rng=rng
    )
    _emit(args, [{"mean_r": mean_r, "ci_low": lo, "ci_high": hi}])


def cmd_summary(args):
    threads = _threads(args)

    def one(m):
        h_chroma, h_dur = _entropies(m, ViewpointKind.CHROMA, ViewpointKind.DURATION)
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
        rows = _per_melody(corpus, one, threads)
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
    _emit(args, records)


# --- parser ----------------------------------------------------------------

def _add_common(p, corpus=True, seed=False):
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", default=None)
    p.add_argument("--threads", type=int, default=None)
    if seed:
        p.add_argument("--seed", type=int, required=True, help="required: randomized outputs must be citable")
    if corpus:
        p.add_argument("corpus", nargs="+", help="canonical corpus files or directories")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="melic", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("viewpoints", help="per-melody viewpoint symbol lists")
    p.add_argument("--kind", default="chroma")
    _add_common(p)
    p.set_defaults(func=cmd_viewpoints)

    p = sub.add_parser("entropy", help="per-melody alphabet size and entropy")
    p.add_argument("--viewpoint", default="chroma")
    _add_common(p)
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("gini", help="per-melody entropy and Gini coefficient")
    p.add_argument("--viewpoint", default="chroma")
    _add_common(p)
    p.set_defaults(func=cmd_gini)

    p = sub.add_parser("mi", help="pitch-rhythm mutual information with shuffle null")
    p.add_argument("--viewpoint", default="chroma", help="pitch viewpoint")
    p.add_argument("--rhythm-kind", default="duration")
    p.add_argument("--shuffles", type=int, default=10)
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_mi)

    p = sub.add_parser("repetition", help="recursive repeated-substring removal")
    p.add_argument("--viewpoint", default="chroma")
    p.add_argument("--lmin", type=int, default=2)
    _add_common(p)
    p.set_defaults(func=cmd_repetition)

    p = sub.add_parser("totalinfo", help="joint entropy times non-repeated length")
    _add_common(p)
    p.set_defaults(func=cmd_totalinfo)

    p = sub.add_parser("ppm-repetition", help="PPM within-corpus repetition")
    p.add_argument("--viewpoint", default="mint")
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
    p.add_argument("--o-values", default="0.5,1,1.5,2")
    p.add_argument("--threshold", type=float, default=2.8)
    p.add_argument("--alpha", type=float, default=0.999)
    p.add_argument("--empirical-h", default=None, help="CSV with column H for log-likelihoods")
    _add_common(p, corpus=False, seed=True)
    p.set_defaults(func=cmd_genmodel_scale)

    p = gsub.add_parser("pitch", help="fit a pitch-sequence model family")
    p.add_argument("--model", required=True, help="e.g. IS3")
    p.add_argument("--grid-a", default="3,5,7,9,12")
    p.add_argument("--grid-l", default="15,30,50")
    p.add_argument("--grid-o", default="1,2,3")
    p.add_argument("--grid-exp", default="1,2,3")
    p.add_argument("--n-per-setting", type=int, default=100)
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_genmodel_pitch)

    p = gsub.add_parser("rhythm", help="fit a rhythm-sequence model family")
    p.add_argument("--model", required=True, help="e.g. SI4")
    p.add_argument("--grid-a", default="3,5,7")
    p.add_argument("--grid-l", default="15,30,50")
    p.add_argument("--grid-exp", default="1,2,3")
    p.add_argument("--n-per-setting", type=int, default=100)
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_genmodel_rhythm)

    p = sub.add_parser("similarity", help="n-gram melodic similarity vs chance")
    p.add_argument("--query", required=True, help="canonical corpus file; first melody is the query")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--viewpoint", default="mint")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (MelicError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
