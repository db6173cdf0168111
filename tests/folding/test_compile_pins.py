"""Pinned digests of what the mapping and folding flow produces.

Each case hashes the canonical JSON (``netlist_to_dict`` /
``schedule_to_dict``, sorted keys) of a PE's technology-mapped netlist
at one LUT width and of its list and level schedules over six tile
sizes, or of one list schedule under a small register file, where the
spill pass has to choose between values.  A changed cut, truth table,
slot placement, spill victim or tie-break changes a digest.

Re-pinning a digest means the compile outputs changed, so the same
change must bump ``repro.folding.scheduler.SCHEDULER_VERSION``: cached
schedules from the old flow must not be served.
"""

import hashlib
import json
from typing import Dict, Optional, Tuple

import pytest

from repro.circuits.io import netlist_to_dict
from repro.circuits.library import mapped_pe
from repro.folding import TileResources, level_schedule, list_schedule
from repro.folding.io import schedule_to_dict
from repro.params import MccParams

TILES = (1, 2, 4, 8, 16, 32)


def digest(document: object) -> str:
    """The first 16 hex digits of the SHA-256 of canonical JSON."""
    text = json.dumps(document, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def compile_digests(name: str, k: int, register_bits: Optional[int]
                    ) -> Tuple[str, ...]:
    """Digests of one pinned case.

    Without ``register_bits``: (mapped netlist, its list schedules
    over ``TILES``, its level schedules over ``TILES``).  With it:
    (the one-MCC list schedule on a register file of that many bits,).
    """
    netlist = mapped_pe(name, k)
    if register_bits is not None:
        resources = TileResources(
            lut_inputs=k, mcc=MccParams(register_file_bits=register_bits)
        )
        return (digest(schedule_to_dict(list_schedule(netlist, resources))),)
    tiles = [TileResources(mccs=mccs, lut_inputs=k) for mccs in TILES]
    return (
        digest(netlist_to_dict(netlist)),
        digest([schedule_to_dict(list_schedule(netlist, tile))
                for tile in tiles]),
        digest([schedule_to_dict(level_schedule(netlist, tile))
                for tile in tiles]),
    )


# (PE, LUT width, register-file bits or None for the default) ->
# compile_digests(...).  The 32- and 64-bit register files give 3 to
# 135 spills each.
PINS: Dict[Tuple[str, int, Optional[int]], Tuple[str, ...]] = {
    ("CONV", 4, None): ("ef314acd18ee9dca", "bb9312857ea9fed4", "d7400916fcb11305"),
    ("CONV", 5, None): ("ef314acd18ee9dca", "efc09bdf3ca0c178", "fc6d7281d37afc28"),
    ("DOT", 4, None): ("aa5f72889756b32b", "2ec0afb5ed188c5a", "900d67272621a5e7"),
    ("DOT", 5, None): ("aa5f72889756b32b", "09124c9728a43baf", "6c2b993148f6302e"),
    ("FC", 4, None): ("f3f87eda0955cd90", "cc06a41d303fbf47", "c3b5e87c71fa98af"),
    ("FC", 5, None): ("f3f87eda0955cd90", "13543e7125ac7497", "716edc7df41fe2ac"),
    ("GEMM", 4, None): ("a4351cca899d44fa", "4eb240600bd9837a", "a641633a4e8c1fa9"),
    ("GEMM", 5, None): ("a4351cca899d44fa", "a574eb32333c076b", "342f55d92472861e"),
    ("KMP", 4, None): ("fa596e36841515e1", "5fbb15271e9b34d2", "aa6cfa61e378c8b6"),
    ("KMP", 5, None): ("7e5cb6a335871951", "0201c124d741fb13", "3167a85a711799ae"),
    ("NW", 4, None): ("8084cf6cc1c83a36", "29e00048efc16388", "c0973fff560b0624"),
    ("NW", 5, None): ("865acff9b16d734f", "2299f5a17d2d08db", "f90c8cfe673681d3"),
    ("SRT", 4, None): ("df99719b9dbc4e5e", "f52f9dfb9984149e", "3e14554cbd700965"),
    ("SRT", 5, None): ("c2379730c9abe1a3", "641db4db08c770e1", "63e8257a3d9580a6"),
    ("STN2", 4, None): ("e11f8b532554392f", "2d03eb0ca521ee38", "b89b89715ef8ab9e"),
    ("STN2", 5, None): ("e11f8b532554392f", "91d7df635ded5509", "5327d10c8f7a20d2"),
    ("STN3", 4, None): ("4ab6ab718974086c", "3338f15085b464f1", "ce17c8a9167cc26a"),
    ("STN3", 5, None): ("4ab6ab718974086c", "4ce30d600f536539", "118cbe6fa9d435b8"),
    ("VADD", 4, None): ("4e5083686cf2b05a", "7564dfb17449aa4a", "a3891441298de25a"),
    ("VADD", 5, None): ("fec7808fe8672f76", "60b3c87c63f0500a", "be298789a50828d2"),
    ("KMP", 5, 32): ("47654a6c87e74355",),
    ("KMP", 5, 64): ("50084bfe8a44ae51",),
    ("NW", 5, 32): ("a5ee2523d407eb40",),
    ("NW", 5, 64): ("a5ee2523d407eb40",),
    ("SRT", 5, 32): ("d4e627776dd3e910",),
    ("SRT", 5, 64): ("d4e627776dd3e910",),
    ("VADD", 5, 32): ("a1b72ea87693058b",),
    ("VADD", 5, 64): ("a1b72ea87693058b",),
}


@pytest.mark.parametrize("name, k, register_bits", list(PINS))
def test_compile_outputs_match_pins(name, k, register_bits):
    assert compile_digests(name, k, register_bits) == \
        PINS[(name, k, register_bits)]
