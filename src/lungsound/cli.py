"""Command-line pipeline driver.

Subcommands: extract (WAV directory -> feature cache), split (cache -> split
manifest), train (baseline / semi / ablations), evaluate (checkpoint ->
classification report), compare (two report JSONs -> per-class deltas).

Exit codes: 0 success, 1 usage error, 2 missing or inconsistent data,
3 numerical failure during training. The LUNG_SSL_LOG environment variable
(error | info | debug) controls logging.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from . import dataset, evaluation, features, nn, training
from .errors import DataError, NonFiniteLoss, NoUsableData

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

log = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lungsound", description=__doc__.split("\n")[1])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("extract", help="decode WAVs and build the fixed-grid feature cache")
    p.add_argument("--audio-dir", required=True)
    p.add_argument("--diagnosis-csv", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=nn.usable_cpus())

    p = sub.add_parser("split", help="build a stratified train/unlabeled/test manifest")
    p.add_argument("--cache", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--unlabeled-fraction", type=float, default=0.5)
    p.add_argument("--by-patient", action="store_true",
                   help="split at patient granularity instead of per recording")
    p.add_argument("--out", required=True)

    train = training.TrainConfig()  # the train defaults
    p = sub.add_parser("train", help="train a model on a cache + split manifest")
    p.add_argument("--cache", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--mode", choices=("baseline", "semi"), required=True)
    p.add_argument("--drop", choices=sorted(training.VALID_DROPS))
    p.add_argument("--seed", type=int, default=train.seed)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--epochs", type=int, default=train.epochs)
    p.add_argument("--refit-epochs", type=int, default=train.refit_epochs)
    p.add_argument("--batch-size", type=int, default=train.batch_size)
    p.add_argument("--learning-rate", type=float, default=train.learning_rate)
    p.add_argument("--patience", type=int, default=train.early_stop_patience)
    p.add_argument("--validation-fraction", type=float, default=train.validation_fraction)
    p.add_argument("--unlabeled-loss-weight", type=float, default=train.unlabeled_loss_weight)

    p = sub.add_parser("evaluate", help="score a checkpoint on the test split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--cache", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--json")
    p.add_argument("--confusion")

    p = sub.add_parser("compare", help="per-class metric deltas between two report JSONs")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    return parser


def _cmd_extract(args) -> int:
    metas = dataset.scan_audio_dir(args.audio_dir)
    diagnoses = dataset.load_diagnoses(args.diagnosis_csv)
    entries = []
    dropped = 0
    for rec_id, meta in enumerate(metas):
        cls = diagnoses.get(meta.patient_id)
        if cls is None:
            dropped += 1
            continue
        entries.append((rec_id, cls, meta.path))
    if not entries:
        raise NoUsableData(f"no usable recordings under {args.audio_dir}")
    if dropped:
        log.info("extract: dropped %d recordings with missing/excluded diagnoses", dropped)
    failures = dataset.build_feature_cache(entries, features.MfccConfig(), args.out,
                                           jobs=args.jobs)
    print(f"cached {len(entries) - len(failures)} recordings to {args.out}"
          + (f" ({len(failures)} failed)" if failures else ""))
    return EXIT_OK


def _cmd_split(args) -> int:
    cache = dataset.FeatureCache.load(args.cache)
    labels = {int(r): int(c) for r, c in zip(cache.ids, cache.classes) if c >= 0}
    manifest = dataset.make_splits(labels, args.seed, args.unlabeled_fraction,
                                   stems=cache.stems, by_patient=args.by_patient)
    manifest.save(args.out)
    print(f"split {len(manifest.train_labeled)} labeled / "
          f"{len(manifest.train_unlabeled)} unlabeled / {len(manifest.test)} test "
          f"-> {args.out}")
    return EXIT_OK


def _cmd_train(args) -> int:
    cfg = training.TrainConfig(epochs=args.epochs, refit_epochs=args.refit_epochs,
                               batch_size=args.batch_size, mode=args.mode,
                               unlabeled_loss_weight=args.unlabeled_loss_weight,
                               learning_rate=args.learning_rate, seed=args.seed,
                               early_stop_patience=args.patience,
                               validation_fraction=args.validation_fraction)
    if args.mode == "baseline" and args.drop:
        raise ValueError("--drop only applies to semi mode")
    cache = dataset.FeatureCache.load(args.cache)
    split = dataset.SplitManifest.load(args.manifest)
    if args.mode == "baseline":
        _, manifest = training.train_baseline(cfg, cache, split, out_dir=args.out_dir)
    else:
        _, manifest = training.train_semi(cfg, cache, split, out_dir=args.out_dir,
                                          drop=args.drop)
    print(f"checkpoint: {manifest.checkpoint_path}")
    if manifest.final_val_accuracy is not None:
        print(f"best validation accuracy: {manifest.final_val_accuracy:.4f} "
              f"(epoch {manifest.best_epoch})")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    cache = dataset.FeatureCache.load(args.cache)
    split = dataset.SplitManifest.load(args.manifest)
    params, norm = training.load_model(args.checkpoint, cache)
    y_true, y_pred = training.evaluate_split(params, cache, split, norm=norm)
    cm = evaluation.confusion(y_true, y_pred)
    rep = evaluation.report(cm)
    text = evaluation.format_report(rep)
    Path(args.report).write_text(text)
    print(text, end="")
    if args.json:
        Path(args.json).write_text(rep.to_json())
    if args.confusion:
        Path(args.confusion).write_text(evaluation.confusion_to_csv(cm))
    return EXIT_OK


def _cmd_compare(args) -> int:
    rep_a = evaluation.ClassificationReport.from_json(Path(args.a).read_text())
    rep_b = evaluation.ClassificationReport.from_json(Path(args.b).read_text())
    width = max(len(n) for n in dataset.CLASS_NAMES)
    print(f"{'':>{width}}     metric        a        b    delta")
    for i, name in enumerate(dataset.CLASS_NAMES):
        for metric in ("precision", "recall", "f1"):
            a = float(getattr(rep_a, metric)[i])
            b = float(getattr(rep_b, metric)[i])
            print(f"{name:>{width}}  {metric:>9} {a:>8.2f} {b:>8.2f} {b - a:>+8.2f}")
    print(f"{'accuracy':>{width}}  {'':>9} {rep_a.accuracy:>8.2f} {rep_b.accuracy:>8.2f} "
          f"{rep_b.accuracy - rep_a.accuracy:>+8.2f}")
    return EXIT_OK


_COMMANDS = {
    "extract": _cmd_extract,
    "split": _cmd_split,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "compare": _cmd_compare,
}


def main(argv=None) -> int:
    level = os.environ.get("LUNG_SSL_LOG", "error").upper()
    logging.basicConfig(level=getattr(logging, level, logging.ERROR),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except NonFiniteLoss as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DataError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
