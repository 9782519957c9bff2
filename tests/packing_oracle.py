"""Reference full-mode block packing, coded apart from the simulator's pending list.

``select_for_block`` packs an explicit pool the simple way: sort by fee and
fill greedily.  Tests build a miner's pool independently and compare the
simulator's blocks with this packing.  A transaction is the tuple
``(id, timestamp, weight, fee)``.
"""


def select_for_block(pool, capacity):
    """Greedy fee-descending packing under the capacity.

    A transaction that does not fit is skipped and scanning continues, so a
    large high-fee transaction cannot block smaller ones behind it.  Fee
    ties break toward the lower transaction id.
    """
    ordered = sorted(pool, key=lambda t: (-t[3], t[0]))  # (-fee, id)
    picked = []
    used = 0.0
    for tx in ordered:
        weight = tx[2]
        if used + weight <= capacity:
            picked.append(tx)
            used += weight
    return picked
