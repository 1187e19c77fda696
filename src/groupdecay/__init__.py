"""Batch active learning for sequence tagging driven by error-decay curves.

The library clusters words and sentences into feature-defined groups, fits
a shared fractional-polynomial decay curve to each group's validation error
as a function of its training mass, and greedily selects annotation batches
that maximize the predicted error reduction.  It also ships the classic
baselines (random, diversification, least-confidence, ensemble
disagreement), two label-free decay variants, a synthetic corpus lab, and a
phrase-level micro-F1 scorer.
"""

from .corpus import (
    CorpusFormatError,
    Dataset,
    EmbeddingTable,
    Sentence,
    ShapeClass,
    Token,
    load_embeddings,
    parse_conll,
    sentence_embedding,
    sentence_embeddings,
    serialize_conll,
    shape_class,
)
from .decay import (
    DecayFit,
    DecayParams,
    FitConfig,
    default_weights,
    fit,
    objective_and_gradient,
)
from .loop import (
    LoopConfig,
    RunHistory,
    STRATEGY_NAMES,
    make_strategy,
    run_active_loop,
)
from .partition import (
    Clusterings,
    GroupErrorRecord,
    Partition,
    PartitionConfig,
    PartitionKind,
    build_identity_partition,
    build_partition,
    group_error,
    group_mass,
    minibatch_kmeans,
)
from .scoring import ScoreReport, decode_phrases, export_decay_curves, micro_f1
from .selection import Batch, SelectionState, edg_score, objective, select_batch
from .simlab import (
    ReferenceTagger,
    SynthSpec,
    builtin_trainer,
    gen_synthetic,
    make_pseudo_pool,
    one_hot_embeddings,
    tagger_predict,
    train_reference_tagger,
)
from .strategies import (
    CapabilityError,
    PredictionBatch,
    PredictionRecord,
    UncertaintySnapshot,
    alternation_policy,
    fass_select,
    score_bald,
    score_uncertainty_decay,
    score_us,
)

__version__ = "0.1.0"
