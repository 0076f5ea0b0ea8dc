"""Wire-level compression for DPSS transfers (section 5 future work).

"We expect that by augmenting the block data services with additional
processing capabilities, the DPSS will become even more useful. For
example, 'wire level' compression would benefit a wide array of
applications. In the case of lossy compression techniques, the degree
of lossiness could be a function of network line parameters and under
application control."

The model: blocks cross the network at ``1/ratio`` of their raw size,
and the client pays ``raw_bytes / decompress_rate`` seconds of CPU to
inflate them. Compression wins when the network is slower than the
decompressor, loses on fast LANs -- the crossover the ablation
benchmark maps out.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import check_positive


@dataclass(frozen=True)
class CompressionModel:
    """A wire-compression scheme's costs and gains."""

    #: compression ratio: raw bytes / wire bytes (e.g. 3.0 for a lossy
    #: scheme on smooth scientific fields)
    ratio: float
    #: client-side decompression throughput in raw bytes/second per CPU
    decompress_rate: float
    #: human label ("lossless-lz", "lossy-wavelet-q8", ...)
    name: str = "compression"

    def __post_init__(self):
        check_positive("ratio", self.ratio)
        check_positive("decompress_rate", self.decompress_rate)
        if self.ratio < 1.0:
            raise ValueError(
                f"ratio must be >= 1 (got {self.ratio}); expansion is a bug"
            )

    def wire_bytes(self, raw_bytes: float) -> float:
        """Bytes actually crossing the network."""
        return raw_bytes / self.ratio

    def decompress_seconds(self, raw_bytes: float) -> float:
        """Client CPU-seconds to inflate ``raw_bytes`` of output."""
        return raw_bytes / self.decompress_rate

    @classmethod
    def lossy(cls, quality: float = 0.5) -> "CompressionModel":
        """A lossy scheme whose ratio rises as quality drops.

        ``quality`` in (0, 1]: 1.0 is near-lossless (ratio ~2), 0.25
        is aggressive (ratio ~8) -- "the degree of lossiness could be
        ... under application control".
        """
        if not 0 < quality <= 1.0:
            raise ValueError(f"quality must be in (0, 1], got {quality}")
        return cls(
            ratio=2.0 / quality,
            decompress_rate=100e6,
            name=f"lossy-q{quality:g}",
        )
