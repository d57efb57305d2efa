"""Box embeddings for logical query answering over knowledge graphs."""

from .errors import (
    BoxQueryError,
    CompatibilityError,
    ParseError,
    SamplingError,
    TrainingError,
    VocabularyError,
)
from .geometry import dist_agg, dist_box_grad
from .kg import (
    GraphSplits,
    KnowledgeGraph,
    Vocabulary,
    build_split_graphs,
    load_splits,
    prepare_nell,
    save_splits,
)
from .model import (
    ModelConfig,
    ModelParams,
    adam_step,
    load_checkpoint,
    save_checkpoint,
)
from .queries import (
    ComputationGraph,
    QueryStructure,
    structure_templates,
    template,
    to_dnf,
)
from .sampling import (
    AnswerSet,
    GroundedQuery,
    answer_count_report,
    generate_heldin_queries,
    generate_queries,
    read_query_file,
    write_query_file,
)
from .training import sample_negatives, train
from .evaluation import (
    EvalReport,
    aggregate,
    count_disjoint_queries,
    metrics_for_query,
    offset_report,
)

__version__ = "0.1.0"
