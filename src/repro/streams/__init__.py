"""Stream model, exact frequency vectors, workload generators, validators,
and the columnar on-disk stream store."""

from repro.streams.frequency import FrequencyVector
from repro.streams.generators import (
    bounded_deletion_stream,
    distinct_ramp_chunks,
    distinct_ramp_stream,
    phased_support_stream,
    planted_heavy_hitters_stream,
    turnstile_wave_stream,
    uniform_stream,
    uniform_stream_chunks,
    zipfian_stream,
    zipfian_stream_chunks,
)
from repro.streams.model import (
    StreamChunk,
    StreamModel,
    StreamParameters,
    Update,
    as_updates,
    chunk_updates,
    iter_updates,
)
from repro.streams.sources import (
    ChunkSource,
    GeneratorChunkSource,
    StoreChunkSource,
    as_chunk_source,
)
from repro.streams.store import ColumnarStreamStore, StreamWriter, write_stream
from repro.streams.validators import (
    StreamValidationError,
    check_bounded_deletion,
    function_trajectory,
    validate_bounded_deletion,
    validate_insertion_only,
    validate_parameters,
)

__all__ = [
    "ChunkSource",
    "GeneratorChunkSource",
    "StoreChunkSource",
    "as_chunk_source",
    "ColumnarStreamStore",
    "StreamWriter",
    "FrequencyVector",
    "write_stream",
    "bounded_deletion_stream",
    "distinct_ramp_chunks",
    "distinct_ramp_stream",
    "phased_support_stream",
    "planted_heavy_hitters_stream",
    "turnstile_wave_stream",
    "uniform_stream",
    "uniform_stream_chunks",
    "zipfian_stream",
    "zipfian_stream_chunks",
    "StreamChunk",
    "StreamModel",
    "StreamParameters",
    "Update",
    "as_updates",
    "chunk_updates",
    "iter_updates",
    "StreamValidationError",
    "check_bounded_deletion",
    "function_trajectory",
    "validate_bounded_deletion",
    "validate_insertion_only",
    "validate_parameters",
]
