"""Independent naive checkers used to cross-validate the trace evaluator.

These deliberately re-derive everything from first principles with dumb
quadratic scans and closed-form counting, sharing no code with the package's
evaluator: the outstanding count is a prefix-sum difference modulo the
counter's width, the in-flight bit
is a backwards search for the most recent set/clear event, the sampled value
is a backwards search for the most recent capture. Outcomes use the same
vocabulary (holds / violated / vacuous / pending) plus the earliest failing
cycle so results compare directly against Verdict objects.
"""
from __future__ import annotations


def bit(v) -> int:
    return 0 if v in (None, 0) else 1


def outstanding_at(p_hsk, q_hsk, i, width) -> int:
    """Requests strictly before cycle i minus responses strictly before it, modulo 2**width.

    A `width`-bit register that counts up and down wraps both ways, so its
    value is the true difference modulo 2**width.
    """
    return (sum(bit(v) for v in p_hsk[:i]) - sum(bit(v) for v in q_hsk[:i])) % 2**width


def inflight_at(set_ev, clr_ev, i) -> int:
    """Most recent of set/clear strictly before i decides; set beats clear."""
    for j in range(i - 1, -1, -1):
        if set_ev[j]:
            return 1
        if clr_ev[j]:
            return 0
    return 0


def sampled_at(cap_ev, data, i) -> int:
    for j in range(i - 1, -1, -1):
        if cap_ev[j]:
            return 0 if data[j] is None else data[j]
    return 0


def _safety(fires, fails):
    if fails:
        return ("violated", min(fails))
    if not fires:
        return ("vacuous", None)
    return ("holds", None)


def liveness(ant, con, bounded=None):
    """ant[i] demands con at some j >= i, or inside [i, i+bounded]."""
    n = len(ant)
    fails, pending, fired = [], False, False
    for i in range(n):
        if not ant[i]:
            continue
        fired = True
        if bounded is None:
            if not any(con[j] for j in range(i, n)):
                pending = True
        else:
            hit = False
            for j in range(i, i + bounded + 1):
                if j < n and con[j]:
                    hit = True
                    break
            if not hit:
                if i + bounded <= n - 1:
                    fails.append(i + bounded)
                else:
                    pending = True
    if fails:
        return ("violated", min(fails))
    if pending:
        return ("pending", None)
    return ("holds", None) if fired else ("vacuous", None)


def ack_eventually(val, ack, bounded=None):
    """val[i] demands ack at some j >= i, or inside [i, i+bounded], as in liveness."""
    n = len(val)
    fails, pending, fired = [], False, False
    for i in range(n):
        if not bit(val[i]):
            continue
        fired = True
        last = n - 1 if bounded is None else min(i + bounded, n - 1)
        if any(bit(ack[j]) for j in range(i, last + 1)):
            continue
        if bounded is not None and i + bounded <= n - 1:
            fails.append(i + bounded)
        else:
            pending = True
    if fails:
        return ("violated", min(fails))
    if pending:
        return ("pending", None)
    return ("holds", None) if fired else ("vacuous", None)


def ack_cover(val, ack, bounded=None):
    n = len(val)
    for i in range(n):
        if not bit(val[i]):
            continue
        last = n - 1 if bounded is None else min(i + bounded, n - 1)
        for j in range(i, last + 1):
            if bit(ack[j]):
                return ("holds", None)
    return ("pending", None)


def response_had_request(q_val, p_hsk, q_hsk, width):
    n = len(q_val)
    fires = [i for i in range(n) if bit(q_val[i])]
    fails = [
        i for i in fires
        if not (outstanding_at(p_hsk, q_hsk, i, width) > 0 or bit(p_hsk[i]))
    ]
    return _safety(fires, fails)


def counter_no_underflow(p_hsk, q_hsk, width):
    n = len(p_hsk)
    fires = [i for i in range(n) if bit(q_hsk[i]) and not bit(p_hsk[i])]
    fails = [i for i in fires if outstanding_at(p_hsk, q_hsk, i, width) <= 0]
    return _safety(fires, fails)


def stability_signal(val, ack, sig):
    n = len(val)
    fires, fails = [], []
    for i in range(n - 1):
        if bit(val[i]) and not bit(ack[i]):
            fires.append(i)
            if not bit(sig[i + 1]):
                fails.append(i + 1)
    return _safety(fires, fails)


def stability_payload(val, ack, payload_cols):
    n = len(val)
    fires, fails = [], []
    for i in range(n - 1):
        if bit(val[i]) and not bit(ack[i]):
            fires.append(i)
            held = bit(val[i + 1]) and all(c[i + 1] == c[i] for c in payload_cols)
            if not held:
                fails.append(i + 1)
    return _safety(fires, fails)


def active_covered(active, p_hsk, q_hsk, q_val, width):
    n = len(active)
    fires, fails = [], []
    for i in range(n):
        ongoing = outstanding_at(p_hsk, q_hsk, i, width) > 0
        if ongoing or bit(active[i]):
            fires.append(i)
        if ongoing and not bit(active[i]):
            fails.append(i)
        elif bit(active[i]) and not (ongoing or bit(p_hsk[i]) or bit(q_val[i])):
            fails.append(i)
    return _safety(fires, fails)


def _events(hsk, ids, symb):
    return [bit(hsk[i]) and ids[i] == symb[i] for i in range(len(hsk))]


def transid_integrity(p_hsk, p_id, q_hsk, q_id, symb):
    n = len(p_hsk)
    set_ev, clr_ev = _events(p_hsk, p_id, symb), _events(q_hsk, q_id, symb)
    fires = [i for i in range(n) if clr_ev[i]]
    fails = [i for i in fires if not inflight_at(set_ev, clr_ev, i)]
    return _safety(fires, fails)


def uniqueness(p_hsk, p_id, q_hsk, q_id, symb):
    n = len(p_hsk)
    set_ev, clr_ev = _events(p_hsk, p_id, symb), _events(q_hsk, q_id, symb)
    fires = [i for i in range(n) if set_ev[i]]
    fails = [i for i in fires if inflight_at(set_ev, clr_ev, i)]
    return _safety(fires, fails)


def data_integrity(p_hsk, p_id, p_data, q_hsk, q_id, q_data, symb):
    n = len(p_hsk)
    cap_ev = _events(p_hsk, p_id, symb)
    fires = [i for i in range(n) if bit(q_hsk[i]) and q_id[i] == symb[i]]
    fails = [
        i for i in fires
        if (0 if q_data[i] is None else q_data[i]) != sampled_at(cap_ev, p_data, i)
    ]
    return _safety(fires, fails)


def xprop(val, other_cols):
    n = len(val)
    if not other_cols:
        fires = list(range(n))
        fails = [i for i in fires if val[i] is None]
        return _safety(fires, fails)
    fires = [i for i in range(n) if val[i] not in (None, 0)]
    fails = [i for i in fires if any(c[i] is None for c in other_cols)]
    return _safety(fires, fails)
