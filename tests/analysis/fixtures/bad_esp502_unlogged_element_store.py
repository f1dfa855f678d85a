"""ESP502 fixture: an element-loop store with no transaction.

``write_elements`` stores a whole run of words in one call; it is a
store like ``write`` and must sit inside the undo window too.
"""

from repro.nvm.publish import durable_metadata


class UnloggedRow:
    def __init__(self, memory, base):
        self.memory = memory
        self.base = base

    @durable_metadata("unlogged-row rewrite")
    def ur_rewrite(self, codes):
        header = (self.base + 1, self.base + 2)
        self.memory.write_elements(header, self.base + 3, codes)  # BAD
