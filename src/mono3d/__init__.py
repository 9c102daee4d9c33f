"""Anchor-based monocular 3D detection blocks on a small f64 autodiff core.

Feature alignment (shape + center), asymmetric pyramid attention, the 2D-3D
anchor codec, multi-task losses with hard-negative mining, detection
post-processing, KITTI file I/O, and AP|R11 / AP|R40 evaluation — each with
an independent oracle in the test suite.
"""

from .tensor import Tensor, no_grad
from .ops import ConvSpec, conv2d, softmax_lastdim
from .gradcheck import GradReport, grad_check
from .align import align_conv, center_align_offsets, select_best_anchor, shape_align_offsets
from .attention import AnabParams, PyramidSpec, anab_forward, attention_map, pa2_pool
from .anchors import AnchorGrid, decode, encode, fit_anchor_3d_stats, generate_anchor_grid
from .geometry import Box2D, Box3D, CameraIntrinsics, backproject, iou_2d, iou_3d, iou_bev, project
from .losses import loss_2d, loss_3d, loss_cls, mine_hard, total_loss
from .postproc import Detection, confidence_filter, nms, optimize_rotation
from .evaluate import EvalConfig, average_precision, depth_error_report, evaluate_class
from .detector import detect
from .train import TrainConfig, lr_at, make_synthetic_scenes, train_toy

__version__ = "0.1.0"
