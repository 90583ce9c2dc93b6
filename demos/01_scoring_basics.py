"""Late-interaction scoring from the ground up.

Walks through the three layers of the scoring stack on a toy example:
per-row MaxSim, the plain summed score, and the focused score that only
keeps the strongest per-row maxima. The last section shows why trimming
matters: a distractor that is mildly similar to *every* query token can
out-bulk two passages that each nail half the query.

Run: python3 demos/01_scoring_basics.py
"""

import numpy as np

from hoplite.corpus import MultiHopQuery, Passage
from hoplite.encoder import EncodedQuery, EncoderConfig, LexicalEncoder
from hoplite.scoring import FocusParams, colbert_score, flipr_score, maxsim_rows

rng = np.random.default_rng(7)


def unit(n, dim):
    m = rng.standard_normal((n, dim))
    return (m / np.linalg.norm(m, axis=1, keepdims=True)).astype(np.float32)


# --- 1. MaxSim: each query row keeps its single best match -----------------

print("== per-row MaxSim ==")
enc = LexicalEncoder(EncoderConfig(dim=64, seed=0))
query = MultiHopQuery(qid="demo", q0_text="carthage fought rome")
passage = Passage(
    pid="p1",
    title="punic wars",
    sentences=("carthage fought three wars", "rome won the last one"),
)
eq = enc.encode_query(query)
rows = enc.encode_passage(passage)
maxima = maxsim_rows(eq.query_part, rows)
for token, m in zip(query.q0_text.split(), maxima):
    print(f"  {token:10s} best match {m:+.3f}")

# identical tokens share embeddings, so "carthage" and "rome" hit 1.0 exactly
assert maxima[0] > 0.99 and maxima[2] > 0.99

# --- 2. summed score vs focused score --------------------------------------

print("\n== summed vs focused ==")
print(f"  colbert  {colbert_score(eq, rows):.3f}   (sums every row's maximum)")
for n_hat in (3, 2, 1):
    sp = flipr_score(eq, rows, FocusParams(n_hat=n_hat, l_hat=0))
    print(f"  flipr n_hat={n_hat}  {sp.score:.3f}")
print("  with n_hat >= number of query rows the two are identical:")
big = flipr_score(eq, rows, FocusParams(n_hat=32, l_hat=8))
print(f"  |flipr - colbert| = {abs(big.score - colbert_score(eq, rows)):.2e}")

# --- 3. the split-query problem ---------------------------------------------

# 8 query rows: half describe entity A, half entity B. Passage A matches
# rows 0-3 perfectly, passage B matches rows 4-7, and the distractor sits at
# a mediocre ~0.57 against all eight rows.

print("\n== split query: focus beats bulk ==")
dim = 32
a_dir, b_dir = np.linalg.qr(rng.standard_normal((dim, 2)))[0].T[:2]
q_rows = []
for i in range(8):
    u = a_dir if i < 4 else b_dir
    r = rng.standard_normal(dim)
    r -= (r @ a_dir) * a_dir + (r @ b_dir) * b_dir
    r /= np.linalg.norm(r)
    q_rows.append(0.8 * u + 0.6 * r)
q = np.asarray(q_rows, dtype=np.float32)
split_eq = EncodedQuery(query_part=q, fact_part=np.zeros((0, dim), np.float32))

pass_a = np.vstack([q[:4], unit(2, dim)])
pass_b = np.vstack([q[4:], unit(2, dim)])
mid = (a_dir + b_dir) / np.linalg.norm(a_dir + b_dir)
distractor = np.tile(mid, (6, 1)).astype(np.float32)

focus = FocusParams(n_hat=4, l_hat=8)  # keep only the strongest half
print(f"  {'passage':12s} {'colbert':>8s} {'flipr@4':>8s}")
for name, mat in (("A (half 1)", pass_a), ("B (half 2)", pass_b), ("distractor", distractor)):
    c = colbert_score(split_eq, mat)
    f = flipr_score(split_eq, mat, focus).score
    print(f"  {name:12s} {c:8.3f} {f:8.3f}")

c_d = colbert_score(split_eq, distractor)
f_d = flipr_score(split_eq, distractor, focus).score
print("\n  summed: the distractor collects eight mediocre maxima and wins on bulk")
print("  focused: only the four strongest rows count, so real matches stay on top")
assert flipr_score(split_eq, pass_a, focus).score > f_d
assert flipr_score(split_eq, pass_b, focus).score > f_d
