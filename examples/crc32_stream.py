"""Streaming CRC-32 in the LLC: sequential state in the FF banks.

The paper's netlists contain flip-flops; this example shows them end
to end.  The CRC-32 register lives in a micro compute cluster's
flip-flop bank and threads across invocations: one byte streams in
per invocation, the running checksum streams out, and the result
matches Python's ``binascii.crc32`` byte for byte.

Run:  python examples/crc32_stream.py [TEXT]
"""

import binascii
import sys

from repro.circuits import technology_map
from repro.circuits.extras import build_crc32_pe
from repro.folding import TileResources, list_schedule, validate_schedule
from repro.freac.executor import FoldedExecutor
from repro.freac.mcc import make_tile


def main() -> None:
    text = (sys.argv[1] if len(sys.argv) > 1 else "folded logic in the LLC")
    data = text.encode()

    print("== Synthesising the CRC-32 LFSR (8 unrolled steps/byte) ==")
    netlist = technology_map(build_crc32_pe(), k=5).netlist
    counts = netlist.counts()
    print(f"   {counts['lut']} LUTs, {counts['flipflop']} flip-flops")

    schedule = list_schedule(netlist, TileResources(mccs=4))
    validate_schedule(schedule, strict=True)
    print(f"   folded over {schedule.fold_cycles} cycles on a 4-MCC tile")

    tile = make_tile(4)
    executor = FoldedExecutor(schedule, tile)
    executor.load_configuration()

    print(f"== Streaming {len(data)} bytes ==")
    crc = 0
    for index, byte in enumerate(data):
        crc = executor.run(streams={"bytes": [byte]}).stores["crc"][0]
        if index < 3 or index == len(data) - 1:
            prefix = data[: index + 1]
            expected = binascii.crc32(prefix)
            mark = "✓" if crc == expected else "✗"
            print(f"   after {index + 1:3d} bytes: {crc:08x} {mark}")
    assert crc == binascii.crc32(data), "CRC mismatch!"
    print(f"   final CRC-32 of {text!r}: {crc:08x} — matches binascii ✓")


if __name__ == "__main__":
    main()
