"""The benchmark tracer's patch list stays in step with the package.

`bench/spans.py` wraps methods by walking an owner path such as
`KnowledgeGraph.project_frontier` from a module with `getattr`. A function
that is gone only reads as zero calls, but a missing owner class raises
inside the tracer and ends every traced run, so each owner must resolve.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def traced_paths():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return ([(module, path) for _, module, path, _ in spans.LAYERS]
            + [(module, path) for _, module, path in spans.COUNTED])


def test_every_traced_owner_class_resolves():
    paths = traced_paths()
    assert paths
    for module, path in paths:
        owner = importlib.import_module(module)
        *owner_path, _ = path.split(".")
        for part in owner_path:
            assert hasattr(owner, part), f"{module}.{'.'.join(owner_path)} is traced but missing"
            owner = getattr(owner, part)
            assert isinstance(owner, type), f"{module}.{part} is traced as a class"
