// Command hepnos-ls inspects a live HEPnOS service: it lists datasets,
// runs, subruns, events and products, walking the same iterators client
// applications use.
//
//	hepnos-ls -group hepnos-group.json                 # top-level datasets
//	hepnos-ls -group g.json fermilab/nova              # runs of a dataset
//	hepnos-ls -group g.json -r fermilab/nova           # full recursive tree
//	hepnos-ls -group g.json -max 5 fermilab/nova       # truncate listings
//	hepnos-ls -group g.json -products                  # product census
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"github.com/hep-on-hpc/hepnos-go/hepnos"
)

func main() {
	var (
		groupPath = flag.String("group", "hepnos-group.json", "group file of the service")
		recursive = flag.Bool("r", false, "recurse into runs/subruns/events")
		maxItems  = flag.Int("max", 10, "items to print per level (0 = all)")
		products  = flag.Bool("products", false, "print the per-database product census (keys only, no value decoding) and exit")
	)
	flag.Parse()

	group, err := hepnos.ReadGroupFile(*groupPath)
	if err != nil {
		fatal(err)
	}
	ctx := context.Background()
	ds, err := hepnos.Connect(ctx, hepnos.ClientConfig{Group: group})
	if err != nil {
		fatal(err)
	}
	defer ds.Close()

	if *products {
		counts, err := ds.ProductCounts(ctx)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-32s %12s %12s\n", "database", "row products", "column pages")
		var rows, pages uint64
		for _, pc := range counts {
			fmt.Printf("%-32s %12d %12d\n", pc.DB.String(), pc.Rows, pc.Pages)
			rows += pc.Rows
			pages += pc.Pages
		}
		fmt.Printf("%-32s %12d %12d\n", "total", rows, pages)
		return
	}

	if flag.NArg() == 0 {
		names, err := ds.ListDataSets(ctx, "")
		if err != nil {
			fatal(err)
		}
		for _, n := range names {
			fmt.Println(n)
		}
		return
	}

	path := flag.Arg(0)
	d, err := ds.OpenDataSet(ctx, path)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("dataset %s (uuid %s)\n", d.Path(), d.UUID())

	children, err := ds.ListDataSets(ctx, path)
	if err != nil {
		fatal(err)
	}
	for _, c := range children {
		fmt.Printf("  dataset %s/%s\n", path, c)
	}

	runs, err := d.Runs(ctx)
	if err != nil {
		fatal(err)
	}
	for i, rn := range runs {
		if truncated("runs", i, len(runs), *maxItems, "  ") {
			break
		}
		fmt.Printf("  run %d\n", rn)
		if !*recursive {
			continue
		}
		run, err := d.Run(ctx, rn)
		if err != nil {
			fatal(err)
		}
		subs, err := run.SubRuns(ctx)
		if err != nil {
			fatal(err)
		}
		for j, sn := range subs {
			if truncated("subruns", j, len(subs), *maxItems, "    ") {
				break
			}
			fmt.Printf("    subrun %d\n", sn)
			sr, err := run.SubRun(ctx, sn)
			if err != nil {
				fatal(err)
			}
			events, err := sr.Events(ctx)
			if err != nil {
				fatal(err)
			}
			for k, en := range events {
				if truncated("events", k, len(events), *maxItems, "      ") {
					break
				}
				ev, err := sr.Event(ctx, en)
				if err != nil {
					fatal(err)
				}
				prods, err := ev.ListProducts(ctx)
				if err != nil {
					fatal(err)
				}
				fmt.Printf("      event %d  products=%v\n", en, prods)
			}
		}
	}
}

// truncated prints an ellipsis line and reports whether to stop.
func truncated(what string, i, total, max int, indent string) bool {
	if max > 0 && i >= max {
		fmt.Printf("%s… (%d more %s)\n", indent, total-max, what)
		return true
	}
	return false
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hepnos-ls:", err)
	os.Exit(1)
}
