"""melic: information-theoretic analysis of melodic corpora."""

from .corpus import (
    Corpus,
    CorpusMeta,
    Melody,
    NoteEvent,
    parse_canonical,
    serialize_canonical,
    write_table,
)
from .infotheory import (
    Distribution,
    distribution_of,
    entropy,
    entropy_lower_bound,
    entropy_of,
    gini,
    mutual_information_excess,
)
from .repetition import remove_repetition, repetition_fraction, total_information
from .seqmodel import (
    information_content,
    predict_distribution,
    train_ppm,
    within_corpus_repetition,
)
from .viewpoints import (
    ViewpointKind,
    ViewpointSequence,
    extract_viewpoint,
    recover_octaves,
)

__version__ = "0.1.0"
