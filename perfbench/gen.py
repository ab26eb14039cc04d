"""Seeded input generators for the benchmark workloads.

Each generator is a pure function of its seed: the same seed writes the
same bytes. The benchmark calls them before any timer starts.
"""

from __future__ import annotations

import numpy as np

from seqssl.data import gen_synthetic, save_corpus

# Nine days of the UserBehavior log (2017-11-25 .. 2017-12-03), in seconds.
TAOBAO_T0 = 1511539200
TAOBAO_T1 = 1512316799
# Corpus-wide shares of pv, cart, fav and buy: event perplexity ~1.56 and
# Gini-Simpson ~0.20, as in the real log.
TAOBAO_EVENT_SHARES = np.array([0.895, 0.055, 0.029, 0.021])
TAOBAO_BEHAVIORS = ("pv", "cart", "fav", "buy")
# A user's latent intent x ~ N(0, 1) scales the share of every non-pv event
# by exp(INTENT_MIX * x - INTENT_MIX**2 / 2), which averages 1 over users,
# and the chance of a purchase in the label window is
# sigmoid(LABEL_BIAS + LABEL_SLOPE * x), a label rate of ~0.10. Of the
# buyers, CART_RATE_BEFORE_BUY also cart an item among their last
# CART_RECENCY history events: a recent signal that a cold GRU picks up in
# a few steps.
INTENT_MIX = 0.7
LABEL_BIAS = -3.0
LABEL_SLOPE = 1.5
CART_RATE_BEFORE_BUY = 0.8
CART_RECENCY = 3
# ingest_taobao's default label window: the last eighth of the time range.
WINDOW_FRACTION = 0.125
WRITE_CHUNK_ROWS = 200_000
# The synthetic corpus: K=6 event types, lengths 10..SYNTH_MAX_LEN.
SYNTH_K = 6
SYNTH_MAX_LEN = 50
# Rows per user in the UserBehavior CSV.
MIN_EVENTS = 5
MAX_EVENTS = 160


def write_synthetic_corpus(path, seed: int, n_users: int = 20000) -> int:
    """The library's archetype corpus as JSON lines. Returns the number of
    examples written."""
    examples = gen_synthetic(seed=seed, n_users=n_users, k=SYNTH_K, max_len=SYNTH_MAX_LEN)
    save_corpus(path, examples, SYNTH_K)
    return len(examples)


def write_userbehavior_csv(path, seed: int, n_users: int = 20000) -> int:
    """A UserBehavior-format CSV (user, item, category, behavior, timestamp;
    no header) with Taobao-like event skew and a planted purchase signal.

    Each user gets MIN_EVENTS..MAX_EVENTS rows, grouped by user in time
    order. About WINDOW_FRACTION of them fall at or after the cut that
    `ingest_taobao` places at the same fraction of the time range. A user
    buys there with a probability set by a latent intent that also raises
    the share of cart, fav and buy events in the history; most buyers also
    put an item in the cart among their last CART_RECENCY history events.
    Returns the number of rows written.
    """
    rng = np.random.default_rng([seed, 0x7A0BA0])
    cut = TAOBAO_T0 + (1.0 - WINDOW_FRACTION) * (TAOBAO_T1 - TAOBAO_T0)
    last_history_ts = int(np.ceil(cut)) - 1

    n_events = rng.integers(MIN_EVENTS, MAX_EVENTS + 1, size=n_users)
    intent = rng.standard_normal(n_users)
    n_window = np.minimum(rng.binomial(n_events, WINDOW_FRACTION), n_events - 1)
    label = rng.random(n_users) < 1.0 / (1.0 + np.exp(-(LABEL_BIAS + LABEL_SLOPE * intent)))
    n_window = np.where(label, np.maximum(n_window, 1), n_window)
    user_start = np.cumsum(n_events) - n_events
    window_start = user_start + n_events - n_window

    # Per-user event-type probabilities; the mean over users of each
    # non-pv share stays at its corpus-wide target.
    lift = np.exp(INTENT_MIX * intent - INTENT_MIX**2 / 2)
    other = TAOBAO_EVENT_SHARES[1:][None, :] * lift[:, None]
    other *= np.minimum(1.0, 0.9 / other.sum(axis=1))[:, None]
    cdf = np.cumsum(other, axis=1) + (1.0 - other.sum(axis=1, keepdims=True))

    user_of_row = np.repeat(np.arange(n_users), n_events)
    in_window = np.arange(user_of_row.size) >= np.repeat(window_start, n_events)
    ts = np.where(
        in_window,
        rng.integers(last_history_ts + 1, TAOBAO_T1 + 1, size=user_of_row.size),
        rng.integers(TAOBAO_T0, last_history_ts + 1, size=user_of_row.size),
    )
    # Pin both ends of the time range so the ingested cut lands where the
    # window was drawn.
    ts[0] = TAOBAO_T0
    has_window = np.flatnonzero(n_window > 0)
    if has_window.size:
        ts[window_start[has_window[0]]] = TAOBAO_T1
    ts = ts[np.lexsort((ts, user_of_row))]

    # Inverse-CDF draw of each row's behavior (0..3 = pv, cart, fav, buy)
    # from its user's distribution. The window holds no buy except the one
    # planted for a positive label.
    u = rng.random(user_of_row.size)[:, None]
    behavior = 1 + (u > cdf[user_of_row]).sum(axis=1)
    behavior[u[:, 0] < 1.0 - other.sum(axis=1)[user_of_row]] = 0
    behavior[in_window & (behavior == 3)] = 0
    behavior[window_start[label]] = 3
    recent = label & (rng.random(n_users) < CART_RATE_BEFORE_BUY)
    depth = rng.integers(1, CART_RECENCY + 1, size=n_users)
    recent_row = window_start - np.minimum(depth, n_events - n_window)
    behavior[recent_row[recent]] = 1

    item = rng.integers(1, 5_000_000, size=user_of_row.size)
    category = rng.integers(1, 5_000_000, size=user_of_row.size)
    user_id = (rng.choice(1_000_000, size=n_users, replace=False) + 1)[user_of_row]
    names = np.array(TAOBAO_BEHAVIORS)[behavior]
    with open(path, "w", newline="") as fh:
        for lo in range(0, user_of_row.size, WRITE_CHUNK_ROWS):
            part = slice(lo, lo + WRITE_CHUNK_ROWS)
            columns = (user_id[part], item[part], category[part], names[part], ts[part])
            fh.writelines(
                f"{u},{i},{c},{b},{t}\n" for u, i, c, b, t in zip(*(col.tolist() for col in columns))
            )
    return int(user_of_row.size)
