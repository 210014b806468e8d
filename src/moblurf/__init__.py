"""Motion-deblurring dynamic radiance fields from blurry monocular video.

Pipeline pieces: synthetic blurry-video generation, two-stage training
(base-ray initialization, then motion-decomposed deblurring), sharp
novel-view rendering, and image-quality evaluation. Everything runs on
NumPy float64 with an in-package reverse-mode autodiff, but for the two
fields' MLPs: in training and rendering alike they run on float32 copies
of their float64 master weights and return float64 values and gradients.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
