package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"colmr/internal/catalog"
	"colmr/internal/colfile"
	"colmr/internal/hdfs"
	"colmr/internal/scan"
	"colmr/internal/serde"
)

// SchemaFile is the per-split-directory schema file name. The leading
// underscore keeps it disjoint from column names, which are identifiers.
const SchemaFile = "_schema"

// splitDirName formats the paper's split-directory naming convention,
// which hdfs.ColumnPlacementPolicy keys on.
func splitDirName(i int) string { return "s" + strconv.Itoa(i) }

// listSplitDirs returns a dataset's split-directories in numeric order.
func listSplitDirs(fs *hdfs.FileSystem, dataset string) ([]string, error) {
	infos, err := fs.List(dataset)
	if err != nil {
		return nil, err
	}
	type entry struct {
		path string
		num  int
	}
	var dirs []entry
	for _, fi := range infos {
		if !fi.IsDir {
			continue
		}
		name := fi.Name()
		if _, ok := hdfs.SplitDirOf(fi.Path); !ok {
			continue
		}
		n, err := strconv.Atoi(strings.TrimPrefix(name, "s"))
		if err != nil {
			continue
		}
		dirs = append(dirs, entry{fi.Path, n})
	}
	if len(dirs) == 0 {
		return nil, fmt.Errorf("core: %s contains no split-directories", dataset)
	}
	sort.Slice(dirs, func(i, j int) bool { return dirs[i].num < dirs[j].num })
	out := make([]string, len(dirs))
	for i, d := range dirs {
		out[i] = d.path
	}
	return out, nil
}

// ReadSchema returns the schema of a CIF dataset (from the first partition
// of its manifest, or its first split-directory when it publishes none).
func ReadSchema(fs *hdfs.FileSystem, dataset string) (*serde.Schema, error) {
	layout, err := datasetLayout(fs, dataset)
	if err != nil {
		return nil, err
	}
	return readSplitSchema(catalog.Of(fs), layout.dirs[0])
}

// Everything CIF knows about a split-directory before it scans it — the
// parsed schema, each column file's whole-file statistics and record count —
// is a pure function of immutable files, and is read through the
// filesystem's metadata catalog (catalog.Of) by the planner and the readers
// alike: readSplitSchema and dirStats below are the only two lookups, so a
// schema or a footer is parsed once per file generation however many jobs,
// batch members, planning passes and tasks ask for it.

// readSplitSchema returns a split-directory's schema. The schema is shared
// with every other reader of the directory and must not be modified.
func readSplitSchema(cat *catalog.Catalog, dir string) (*serde.Schema, error) {
	return cat.Schema(dir + "/" + SchemaFile)
}

// dirStats resolves one split-directory's whole-file column statistics for
// one consultation — one pruning or estimation pass of one job. Every
// failure mode (missing file, corrupt stats) degrades to "no statistics",
// never to an error: real I/O errors surface in the task that opens the
// directory, not in planning.
type dirStats struct {
	cat    *catalog.Catalog
	dir    string
	schema *serde.Schema
	// checked, when set, counts the column files this consultation looked
	// at (scan.PruneReport.FilesChecked) — once per file, and whether the
	// catalog had the answer resident or read the footer for it: the count
	// describes the plan, not the catalog.
	checked *int
	seen    []colStats
}

type colStats struct {
	col string
	st  *scan.ColStats
}

// stats is the consultation's scan.StatsFunc. Columns resolve lazily, so
// only the files a predicate's traversal actually asks about are looked up.
func (d *dirStats) stats(col string) *scan.ColStats {
	for i := range d.seen {
		if d.seen[i].col == col {
			return d.seen[i].st
		}
	}
	var st *scan.ColStats
	if cs := d.schema.Field(col); cs != nil {
		var ok bool
		if st, _, ok = d.cat.FileStats(d.dir+"/"+col, cs); ok && d.checked != nil {
			*d.checked++
		}
	}
	d.seen = append(d.seen, colStats{col, st})
	return st
}

// recordCount is the fallback for verdicts that consulted no statistics:
// any column's footer counts the directory's records.
func (d *dirStats) recordCount() int64 {
	if len(d.schema.Fields) == 0 {
		return 0
	}
	f := d.schema.Fields[0]
	_, n, _ := d.cat.FileStats(d.dir+"/"+f.Name, f.Type)
	return n
}

// LoadOptions configures a COF writer.
type LoadOptions struct {
	// SplitRecords caps records per split-directory. Zero means rotation
	// is driven by SplitBytes.
	SplitRecords int64
	// SplitBytes caps the total bytes of one split-directory (default:
	// number-of-columns x HDFS block size, the paper's geometry where
	// each column file fills about one block).
	SplitBytes int64
	// Default is the column layout applied to every column without an
	// override.
	Default colfile.Options
	// PerColumn overrides layouts for specific columns (e.g. the paper's
	// metadata column as DCSL).
	PerColumn map[string]colfile.Options
	// WriterNode is the node performing the load (hdfs.AnyNode for a
	// cluster-wide loader).
	WriterNode hdfs.NodeID
}

func (o LoadOptions) layoutFor(col string) colfile.Options {
	if opt, ok := o.PerColumn[col]; ok {
		return opt
	}
	return o.Default
}

// Validate checks the options against a schema.
func (o LoadOptions) Validate(schema *serde.Schema) error {
	if schema == nil || schema.Kind != serde.KindRecord {
		return fmt.Errorf("core: COF requires a record schema")
	}
	if err := schema.Validate(); err != nil {
		return err
	}
	for col, opt := range o.PerColumn {
		fs := schema.Field(col)
		if fs == nil {
			return fmt.Errorf("core: layout override for unknown column %q", col)
		}
		if opt.Layout == colfile.DCSL &&
			fs.Kind != serde.KindMap && fs.Kind != serde.KindString && fs.Kind != serde.KindBytes {
			return fmt.Errorf("core: DCSL layout on non-dictionary column %q (map, string, and bytes only)", col)
		}
	}
	if o.SplitRecords < 0 || o.SplitBytes < 0 {
		return fmt.Errorf("core: negative split bounds")
	}
	return nil
}
