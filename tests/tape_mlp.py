"""The segmentation MLP and its weighted cross entropy on the generic
autodiff tape, kept as a test oracle.

This is the MLP as it was written before `strokeseg.segmentation` wrote its
forward and backward out in numpy: every layer op is its own autodiff node,
so its gradients come from the tape's generic rules rather than from the
hand-written backward.
"""
import numpy as np

from strokeseg.autodiff import Tensor, as_tensor, log_softmax


def tensors(params: dict, requires_grad: bool = False) -> dict:
    return {k: Tensor(v, requires_grad=requires_grad) for k, v in params.items()}


def tape_log_probs(tp: dict, x, masks: tuple | None = None) -> Tensor:
    """relu -> dropout -> relu -> dropout -> affine -> log softmax."""
    h1 = (as_tensor(x) @ tp["w_h1"] + tp["b_h1"]).relu()
    if masks is not None:
        h1 = h1 * masks[0]
    h2 = (h1 @ tp["w_h2"] + tp["b_h2"]).relu()
    if masks is not None:
        h2 = h2 * masks[1]
    return log_softmax(h2 @ tp["w_o"] + tp["b_o"], axis=-1)


def tape_weighted_ce(tp: dict, x, y_idx: np.ndarray, w: np.ndarray,
                     masks: tuple | None = None) -> Tensor:
    log_p = tape_log_probs(tp, x, masks)
    onehot = np.zeros((len(y_idx), w.size))
    onehot[np.arange(len(y_idx)), y_idx] = w[y_idx]
    return (log_p * as_tensor(onehot)).sum(axis=-1).mean() * -1.0
