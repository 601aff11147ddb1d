package catalog

import "colmr/internal/hdfs"

// NewWithBudget returns a catalog over fs bounded to budget bytes instead of
// MaxBytes, apart from fs's own catalog: the byte bound walked at sizes a
// test can write.
func NewWithBudget(fs *hdfs.FileSystem, budget int64) *Catalog { return newCatalog(fs, budget) }

// Used returns the bytes on disk the resident entries were parsed from.
func (c *Catalog) Used() int64 { return c.lru.Used() }
