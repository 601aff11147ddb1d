package colmr_test

import (
	"fmt"
	"log"
	"strings"

	"colmr"
)

// Example demonstrates the core workflow: load records through COF, then
// run a projected, lazy MapReduce job through CIF.
func Example() {
	fs := colmr.NewFileSystem(colmr.DefaultCluster(), 1)
	fs.SetPlacementPolicy(colmr.NewColumnPlacementPolicy())

	schema := colmr.MustParseSchema(`Page { string url, map<string> meta }`)
	w, err := colmr.NewColumnWriter(fs, "/pages", schema, colmr.LoadOptions{SplitRecords: 64}, nil)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 128; i++ {
		rec := colmr.NewRecord(schema)
		rec.Set("url", fmt.Sprintf("http://site/%d", i))
		rec.Set("meta", map[string]any{"lang": "en"})
		if err := w.Append(rec); err != nil {
			log.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}

	conf := colmr.ScanDataset("/pages").Columns("url").Lazy(true).Conf() // the meta column is never read

	count := 0
	job := &colmr.Job{
		Conf:  conf,
		Input: &colmr.ColumnInputFormat{},
		Mapper: colmr.MapperFunc(func(key, value any, emit colmr.Emit) error {
			url, err := value.(colmr.Record).Get("url")
			if err != nil {
				return err
			}
			if strings.HasSuffix(url.(string), "/7") {
				count++
			}
			return nil
		}),
		Output: colmr.NullOutput{},
	}
	if _, err := colmr.RunJob(fs, job); err != nil {
		log.Fatal(err)
	}
	fmt.Println("matches:", count)
	// Output: matches: 1
}

// ExampleParseSchema shows the paper's schema DSL, including complex types.
func ExampleParseSchema() {
	s, err := colmr.ParseSchema(`
		URLInfo {
		  string url,
		  time fetchTime,
		  string[] inlink,
		  map<string> metadata,
		  bytes content
		}`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(s.Name, len(s.Fields), s.Field("metadata").Kind)
	// Output: URLInfo 5 map
}

// ExampleAddColumn evolves a dataset's schema in place — one new file per
// split-directory, no rewrite of existing columns (paper Section 4.3).
func ExampleAddColumn() {
	fs := colmr.NewFileSystem(colmr.DefaultCluster(), 2)
	schema := colmr.MustParseSchema(`T { string url }`)
	w, _ := colmr.NewColumnWriter(fs, "/t", schema, colmr.LoadOptions{SplitRecords: 10}, nil)
	for i := 0; i < 20; i++ {
		rec := colmr.NewRecord(schema)
		rec.Set("url", fmt.Sprintf("http://h%d/x", i%3))
		w.Append(rec)
	}
	w.Close()

	err := colmr.AddColumn(fs, "/t", "urlLen", colmr.IntSchema(), colmr.ColumnOptions{},
		[]string{"url"}, func(rec colmr.Record) (any, error) {
			u, err := rec.Get("url")
			if err != nil {
				return nil, err
			}
			return int32(len(u.(string))), nil
		}, nil)
	if err != nil {
		log.Fatal(err)
	}
	s, _ := colmr.ReadDatasetSchema(fs, "/t")
	fmt.Println(s.FieldNames())
	// Output: [url urlLen]
}
