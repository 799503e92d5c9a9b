"""Respiratory sound classification with semi-supervised training.

Pipeline: WAV decoding and resampling -> MFCC feature matrices -> a small
convolutional classifier trained from scratch, optionally with mixmatch,
co-refinement and co-refurbishing passes over an unlabeled pool -> per-class
classification reports.
"""

from .audio_io import AudioClip, load_wav, resample
from .dataset import (CLASS_IDS, CLASS_NAMES, FeatureCache, RecordingMeta, SplitManifest,
                      build_feature_cache, load_diagnoses, make_splits, parse_filename,
                      scan_audio_dir)
from .evaluation import ClassificationReport, confusion, format_report, report
from .features import MfccConfig, extract_mfcc
from .nn import (AdamState, CnnSpec, ModelParams, adam_step, forward_batch, init_params,
                 load_checkpoint, loss_and_backward, save_checkpoint)
from .ssl import (SslConfig, augment, co_refinement_step, co_refurbishing_step, guess_labels,
                  mixmatch, mixup, sharpen)
from .training import (FeatureNormalizer, RunManifest, TrainConfig, evaluate_split, load_model,
                       train_baseline, train_semi)

__version__ = "0.1.0"
