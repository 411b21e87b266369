"""A fixed job that stands for the machine's speed of the moment.

``run.py`` runs it as its own process just before each timed gitcite command
and reports command wall time in units of this job's wall time, which takes
out most of the slow and fast phases of a machine shared with other tenants.
It does what a gitcite command does in kind: it starts an interpreter, builds
a tree of dictionaries from paths, hashes contents and round-trips JSON. It
reads no input and its work never changes, so no change to gitcite moves it.
"""

import hashlib
import json

tree: dict = {}
for i in range(20000):
    node = tree
    for part in (f"d{i % 7}", f"e{i % 41}", f"f{i % 199}"):
        node = node.setdefault(part, {})
    node[f"file{i}.py"] = hashlib.sha1(f"content {i}".encode() * 20).hexdigest()
if len(json.loads(json.dumps(tree, sort_keys=True, indent=2))) != 7:
    raise SystemExit("the reference job built the wrong tree")
