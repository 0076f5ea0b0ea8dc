"""Reference implementations the production tree no longer carries.

Each module here is a superseded algorithm kept as the thing a test
compares against; nothing under ``src/`` imports from this package.
"""
