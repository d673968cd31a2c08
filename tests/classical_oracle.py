"""Closed forms of the BB84 quantities for attacks that leave Eve classical.

No quantum state, spectrum or engine code: every quantity follows from
GF(2) ranks and the coset-leader decoder.  Each key-material position
carries a label that Eve knows, drawn independently per position.  A label
says whether Eve knows Alice's bit a there, and whether Bob's bit b is
uniform (independent of a and of Eve) or equal to a:

- intercept-resend at p: matched basis (p/2: a known, no error),
  mismatched basis (p/2: a unknown, b uniform), passed (1 - p: a unknown,
  no error);
- steal-replace: a known and b uniform on every position.

Sample positions err independently with the labels' error probability, so
P(pass) is a binomial sum.  Given the labels, let U be the positions where
a is unknown and W those where b is uniform.  Given Eve's view and the
syndrome, K_A is uniform on an affine subspace of dimension
r = rank([H; T]_U) - rank(H_U), and K_A xor K_B is independent of K_A and of
the view, with distribution P_E over the 2^|W| error patterns on W through
the decoder.  Summed over label patterns, with l = out_len:

- eps_sec = P(pass) E[1 - 2^(r - l)];
- eps_cor = P(pass) E[1 - P_E(0)];
- advantage = P(pass) E[(2^r |2^-r P_E(0) - 2^-l| + 1 - 2^(r - l) + 1 - P_E(0)) / 2].

The label patterns enter only through (U, W), so the sums run over the
4^w mask pairs, as arrays.
"""

from __future__ import annotations

import math

import numpy as np

from qkdsec.linalg import coset_leader_table, gf2_rank


def intercept_resend_labels(p: float):
    """(probability, a known, b uniform) of each intercept-resend label."""
    return [(p / 2.0, True, False), (p / 2.0, False, True), (1.0 - p, False, False)]


STEAL_REPLACE_LABELS = [(1.0, True, True)]


def classical_quantities(params, labels):
    """(p_abort, eps_cor, eps_sec, advantage) of a position-uniform classical attack."""
    w, t, ell = params.width, params.t, params.out_len
    h = np.array(params.h_matrix, dtype=np.uint8).reshape(params.h_rows, w)
    tm = np.array(params.t_matrix, dtype=np.uint8)

    q = sum(prob for prob, _, uniform in labels if uniform) / 2.0
    passing = sum(math.comb(t, k) * q ** k * (1.0 - q) ** (t - k)
                  for k in range(t + 1) if not k > params.q_tol * t)

    # masks over the key-material positions: bit j is position j
    masks = np.arange(1 << w)
    bits = (masks[:, None] >> np.arange(w)) & 1
    r = np.array([gf2_rank(np.vstack([h, tm])[:, u]) - gf2_rank(h[:, u])
                  for u in bits.astype(bool)])

    # P_E(0) per W: the share of error patterns e inside W that the decoder
    # turns into a key difference of zero
    leaders = coset_leader_table(h) if params.h_rows else np.zeros(1, dtype=np.int64)
    syndrome = (bits @ h.T % 2) @ (1 << np.arange(params.h_rows))
    leader = (leaders[syndrome][:, None] >> np.arange(w)) & 1
    same_key = ~((bits ^ leader) @ tm.T % 2).any(axis=1)
    inside = (masks[None, :] & ~masks[:, None]) == 0  # [W, e]: e within W
    p_e0 = (inside & same_key).sum(axis=1) / inside.sum(axis=1)

    # probability of each (U, W) pair: labels are independent per position
    step = np.zeros((2, 2))  # [a unknown, b uniform]
    for p_label, known, uniform in labels:
        step[int(not known), int(uniform)] += p_label
    prob = step[bits[:, None, :], bits[None, :, :]].prod(axis=-1)

    r, p_e0 = r[:, None], p_e0[None, :]
    share = 2.0 ** (r - ell)
    eps_sec = passing * float((prob * (1.0 - share)).sum())
    eps_cor = passing * float((prob * (1.0 - p_e0)).sum())
    gap = 2.0 ** r * abs(2.0 ** -r * p_e0 - 2.0 ** -ell)
    advantage = passing * float((prob * 0.5 * (gap + 1.0 - share + 1.0 - p_e0)).sum())
    return 1.0 - passing, eps_cor, eps_sec, advantage

