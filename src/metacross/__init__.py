"""Metadata-conditioned modulation and masked metadata cross-attention.

A self-contained float64 autodiff core plus two toy pipelines: a FiLM-style
conditioned 2D classifier and a 3D segmentation model whose bottleneck
attends from image patch tokens to a fixed four-entry modality dictionary
under an availability mask. An analytical complexity engine and a seeded
experiment harness round out the package.
"""

from .attention import (AttentionConfig, CrossAttentionBlock, PatchTokenizer,
                        attention_flops)
from .classifier import (ClassifierConfig, ClsSample, FilmClassifier,
                         evaluate_accuracy, film_apply, gamma_statistics,
                         permutation_probe)
from .complexity import ComplexityReport, LayerCost, compare_bottlenecks
from .errors import (CheckpointError, ConfigError, DegenerateMaskError,
                     EmptyInputError, NoModalityError, NumericError,
                     ShapeError)
from .metadata import (FilmGenerator, MetadataEmbeddings, MetadataEncoder,
                       MODALITY_NAMES, Modality, ModalityMask)
from .phantoms import (DEFAULT_CONTRASTS, ModalityContrast, PhantomSpec,
                       apply_availability, generate_cls_phantoms,
                       generate_seg_phantoms)
from .segmentation import (SegBatch, SegConfig, SegModel, combined_loss,
                           dice_score, load_checkpoint, save_checkpoint,
                           train_step)
from .tensor import Tape, Tensor, grad_check, masked_softmax_rows

__version__ = "0.1.0"
