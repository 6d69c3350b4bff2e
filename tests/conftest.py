"""Suite-wide setup.

pytest's default import mode puts the directory of a conftest that
sits outside any package on ``sys.path``, so suites in every
subdirectory can import the helper modules kept here, such as
:mod:`golden_worlds`.
"""
