"""Box embeddings for logical query answering over knowledge graphs."""

from .errors import (
    BoxQueryError,
    CompatibilityError,
    ParseError,
    SamplingError,
    TrainingError,
    VocabularyError,
)
from .geometry import (
    Box,
    dist_agg,
    dist_box,
    dist_box_grad,
    dist_inside,
    dist_outside,
)
from .kg import (
    GraphSplits,
    KnowledgeGraph,
    Vocabulary,
    augment_inverses,
    build_split_graphs,
    load_splits,
    load_triples,
    prepare_nell,
    save_splits,
)
from .model import (
    ModelConfig,
    ModelParams,
    adam_step,
    embed_conjunctive,
    embed_epfo,
    load_checkpoint,
    save_checkpoint,
)
from .queries import (
    ComputationGraph,
    QueryStructure,
    structure_templates,
    template,
    to_dnf,
    validate_dag,
)
from .sampling import (
    AnswerSet,
    GroundedQuery,
    answer_count_report,
    answer_exact,
    answer_set,
    generate_heldin_queries,
    generate_queries,
    instantiate,
    read_query_file,
    write_query_file,
)
from .training import loss, sample_negatives, train
from .evaluation import (
    EvalReport,
    aggregate,
    count_disjoint_queries,
    metrics_for_query,
    offset_report,
)

__version__ = "0.1.0"
