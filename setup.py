"""Setuptools shim.

The offline environment lacks the ``wheel`` package, so pip's PEP 517
editable path (which builds an editable wheel) fails.  This shim lets
``pip install -e . --no-build-isolation --no-use-pep517`` take the legacy
``setup.py develop`` route, which needs no wheel.  It declares no
metadata, so the install is named ``UNKNOWN 0.0.0``; the supported way
to use the package is ``PYTHONPATH=src``, which needs no install.
"""

from setuptools import setup

setup()
