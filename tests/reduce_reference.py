"""Reference of the segmented reduction in ``mlmc_boed.gradient``.

``reference_reduce`` and ``reference_segment_sums`` are ``_reduce`` and
``_segment_sums`` as they were written before the reduction built its
segment indices from the per-group counts: per-sample repeats of the group
fields, an ``(n, 3)`` keep mask over the candidate segment starts, and
segment lengths taken as differences of the starts.  ``test_gradient.py``
requires the package's reduction to give exactly the same arrays.
"""

import numpy as np


def reference_segment_sums(log_w, scores, starts):
    top = np.maximum.reduceat(log_w, starts)
    lin = np.exp(log_w - np.repeat(top, np.diff(starts, append=log_w.size)))
    den = np.add.reduceat(lin, starts)
    num = None if scores is None else np.add.reduceat(lin[:, None] * scores, starts, axis=0)
    return top, den, num


def reference_reduce(log_w, scores, counts, m, has_self, split, antithetic):
    self_s, split, m = (np.repeat(x, counts) for x in (has_self, split, m))
    row0 = np.cumsum(m + self_s) - (m + self_s)
    keep = np.stack([self_s, np.ones_like(self_s), split], axis=1)
    starts = np.stack([row0, row0 + self_s, row0 + self_s + m // 2], axis=1)[keep]
    ia = np.cumsum(keep.sum(axis=1)) - keep.sum(axis=1) + self_s
    ib = np.where(split, ia + 1, ia)

    top, den, num = reference_segment_sums(log_w, scores, starts)
    shift = np.maximum(top[ia], top[ib])
    ca = np.exp(top[ia] - shift)
    cb = np.where(split, np.exp(top[ib] - shift), 0.0)
    den_f = ca * den[ia] + cb * den[ib]
    if scores is None:
        self_term = log_w[row0]
        half = top + np.log(den) - np.log(np.diff(starts, append=log_w.size))
        fine = shift + np.log(den_f) - np.log(m)
    else:
        self_term = scores[row0]
        half = num / den[:, None]
        fine = (ca[:, None] * num[ia] + cb[:, None] * num[ib]) / den_f[:, None]
        split = split[:, None]
    coarse = 0.5 * (half[ia] + half[ib]) if antithetic else half[ia]
    psi = self_term - fine
    return np.where(split, coarse - fine, psi), psi
