"""Algorithm 2: two-stage gradient vector partitioning.

Stage one splits the flat gradient vector at model-layer boundaries (one
partition per parameter tensor).  Stage two further splits any layer larger
than ``n_g / n_workers`` into ``n_workers`` near-equal fractions, so no
single partition can dominate a worker's selection load.  The paper calls
every resulting fragment a "layer"; this module calls it a
:class:`LayerPartition` to avoid confusion with model layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.sparsifiers.base import GradientLayout

__all__ = ["LayerPartition", "two_stage_partition"]


@dataclass(frozen=True)
class LayerPartition:
    """A contiguous fragment of the flat gradient vector.

    Attributes
    ----------
    start, end:
        Half-open interval ``[start, end)`` in the flat vector.
    source_layer:
        Index of the model layer (stage-one partition) this fragment came
        from.
    source_name:
        Name of that model layer.
    fragment:
        Fragment index within the source layer (0 when the layer was not
        split in stage two).
    """

    start: int
    end: int
    source_layer: int
    source_name: str
    fragment: int = 0

    @property
    def size(self) -> int:
        return int(self.end - self.start)

    def slice(self) -> slice:
        return slice(self.start, self.end)


def two_stage_partition(layout: GradientLayout, n_workers: int) -> List[LayerPartition]:
    """Partition the gradient vector per Algorithm 2.

    Parameters
    ----------
    layout:
        Layer structure of the model's flat gradient vector (stage one is
        simply this structure).
    n_workers:
        Number of workers; the stage-two size threshold is
        ``n_g / n_workers``.

    Returns
    -------
    list of LayerPartition
        Contiguous, non-overlapping partitions covering ``[0, n_g)`` in
        order.  Every partition from a split layer has size
        ``<= ceil(layer_size / n_workers)`` and, provided each original
        layer is itself no larger than ``n_g``, size ``<= ceil(n_g /
        n_workers)``.
    """
    if n_workers <= 0:
        raise ValueError("n_workers must be positive")
    n_g = layout.total_size
    threshold = n_g / n_workers if n_workers > 0 else float("inf")
    partitions: List[LayerPartition] = []
    alloc_pos = 0
    for layer_index, (name, size) in enumerate(zip(layout.names, layout.sizes)):
        if size > threshold and n_workers > 1:
            quotient, remainder = divmod(size, n_workers)
            for fragment in range(n_workers):
                fragment_size = quotient + (1 if fragment < remainder else 0)
                if fragment_size == 0:
                    continue
                start = alloc_pos
                alloc_pos += fragment_size
                partitions.append(
                    LayerPartition(
                        start=start,
                        end=alloc_pos,
                        source_layer=layer_index,
                        source_name=name,
                        fragment=fragment,
                    )
                )
        else:
            start = alloc_pos
            alloc_pos += size
            partitions.append(
                LayerPartition(
                    start=start,
                    end=alloc_pos,
                    source_layer=layer_index,
                    source_name=name,
                    fragment=0,
                )
            )
    if alloc_pos != n_g:
        raise AssertionError(f"partitioning covered {alloc_pos} of {n_g} gradients")
    return partitions
