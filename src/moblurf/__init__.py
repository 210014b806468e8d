"""Motion-deblurring dynamic radiance fields from blurry monocular video.

Pipeline pieces: synthetic blurry-video generation, two-stage training
(base-ray initialization, then motion-decomposed deblurring), sharp
novel-view rendering, and image-quality evaluation. Everything runs on
NumPy float64 with an in-package reverse-mode autodiff, but for the field
MLPs of a rendered frame: forward only and quantised to 8 bits, they run
on float32 copies of their weights and return float64.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
