"""Reference implementations that the optimized code is tested against.

Each module here keeps a plain, loop-based version of an algorithm whose
production form in ``src/repro`` was rewritten for speed.  They are
oracles: tests require the production code to return exactly what the
reference returns.
"""
