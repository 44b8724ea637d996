#!/usr/bin/env python3
"""Scenario: a leaderboard with verified range queries (§7 future work).

The paper's hash index cannot answer "scores between X and Y"; §7 points
at skiplist-style indexes as future work.  ``repro.ext.rangestore``
implements it: an ordered index over encrypted entries with re-designed
integrity metadata (per-segment hashes), so range *results* are
authenticated — a malicious host cannot drop the top player from the
leaderboard without detection.
"""

from repro import Attacker
from repro.errors import IntegrityError, ReplayError
from repro.ext.rangestore import RangeShieldStore


def score_key(score: int, player: str) -> bytes:
    # Descending-friendly composite key: zero-padded score then name.
    return f"score:{score:08d}:{player}".encode()


def main() -> None:
    board = RangeShieldStore(segment_size=8)
    players = [
        ("aria", 9120), ("bren", 8430), ("caro", 8430), ("dmitri", 7210),
        ("eva", 6980), ("finn", 5500), ("gus", 4470), ("hana", 3020),
        ("ivan", 2210), ("june", 1100),
    ]
    for player, score in players:
        board.set(score_key(score, player), f"{player}|clan=red".encode())
    print(f"leaderboard holds {len(board)} entries")

    print("\n== verified range query: scores 5000..9000 ==")
    for key, value in board.range(score_key(5000, ""), score_key(9000, "~")):
        print(" ", key.decode(), "->", value.decode())

    print("\n== the host tries to hide the champion ==")
    attacker = Attacker(board.machine.memory)
    champion_addr = board._index.search(score_key(9120, "aria"))
    attacker.flip_bit(champion_addr + 40, 1)  # corrupt the record
    try:
        list(board.range(score_key(9000, ""), score_key(9999, "~")))
        print("-> range returned silently (bug!)")
    except (IntegrityError, ReplayError) as exc:
        print(f"-> tampering detected during range scan: {type(exc).__name__}")

    print("\n== point ops still work elsewhere ==")
    board.set(score_key(9500, "kai"), b"kai|clan=blue")
    print("new champion:", board.get(score_key(9500, "kai")).decode())
    print(f"simulated time: {board.machine.elapsed_us():.1f} us")


if __name__ == "__main__":
    main()
