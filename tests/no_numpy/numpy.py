"""Stands in for numpy where tests run the program: importing it fails as it
does where numpy is not installed.  tests/test_runtime_only.py puts this
directory first on a subprocess's PYTHONPATH."""

raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
