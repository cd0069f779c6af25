// Command paperbench regenerates the paper's evaluation artifacts (§IV):
//
//	paperbench fig2            Figure 2: strong scaling, 16→256 nodes
//	paperbench fig3            Figure 3: throughput vs dataset size @128 nodes
//	paperbench table           derived strong-scaling efficiency table
//	paperbench ablate          §IV-D batch-size / prefetch ablation
//	paperbench all             everything above
//
// Flags:
//
//	-trials N   repeated runs per point (default 5; the paper also ran
//	            each experiment several times and jittered the dots)
//	-csv        emit comma-separated values instead of aligned text
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/hep-on-hpc/hepnos-go/internal/simexp"
)

func main() {
	trials := flag.Int("trials", 5, "trials per data point")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: paperbench [-trials N] [-csv] {fig2|fig3|weak|ingest|table|ablate|all}\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	m := simexp.Theta()
	cmd := flag.Arg(0)
	run := func(name string) {
		switch name {
		case "fig2":
			series := simexp.Fig2(m, *trials)
			if *csv {
				printCSV("nodes", series)
			} else {
				fmt.Print(simexp.FormatSeries(
					"Figure 2: throughput (slices/s) vs nodes, 17,437,656-event sample", "nodes", series))
			}
		case "fig3":
			series := simexp.Fig3(m, *trials)
			if *csv {
				printCSV("events", series)
			} else {
				fmt.Print(simexp.FormatSeries(
					"Figure 3: throughput (slices/s) vs dataset size, 128 nodes", "events", series))
			}
		case "weak":
			series := simexp.WeakScaling(m, *trials)
			if *csv {
				printCSV("nodes", series)
			} else {
				fmt.Print(simexp.FormatSeries(
					"Weak scaling: throughput (slices/s) vs nodes, dataset ∝ nodes", "nodes", series))
			}
		case "ingest":
			series := []simexp.Series{simexp.IngestScaling(m, *trials)}
			if *csv {
				printCSV("nodes", series)
			} else {
				fmt.Print(simexp.FormatSeries(
					"Ingest phase (DataLoader): events/s vs nodes, 7716-file sample", "nodes", series))
			}
		case "table":
			rows := simexp.StrongScalingTable(simexp.Fig2(m, *trials))
			fmt.Println("== Strong-scaling efficiency (relative to 16 nodes) ==")
			for _, r := range rows {
				fmt.Printf("%-22s nodes=%4d  throughput=%12.0f  efficiency=%5.1f%%\n",
					r.Workflow, r.Nodes, r.Throughput, 100*r.Efficiency)
			}
		case "ablate":
			rows := simexp.Ablation(m, *trials)
			fmt.Println("== ParallelEventProcessor tuning ablation (128 nodes, 4x sample, in-memory) ==")
			for _, r := range rows {
				fmt.Printf("%-28s load=%6d work=%5d prefetch=%-5v  throughput=%12.0f\n",
					r.Name, r.LoadBatch, r.WorkBatch, r.Prefetch, r.Throughput)
			}
			fmt.Println()
			fmt.Println("== Server allocation ablation (1 server node per N nodes, 128 nodes) ==")
			for _, r := range simexp.ServerRatioAblation(m, *trials) {
				mark := ""
				if r.Ratio == 8 {
					mark = "  <- paper (§IV-D)"
				}
				fmt.Printf("1:%-4d  throughput=%12.0f%s\n", r.Ratio, r.Throughput, mark)
			}
		default:
			flag.Usage()
			os.Exit(2)
		}
	}
	if cmd == "all" {
		for _, name := range []string{"fig2", "fig3", "weak", "ingest", "table", "ablate"} {
			run(name)
			fmt.Println()
		}
		return
	}
	run(cmd)
}

func printCSV(xName string, series []Series) {
	labels := make([]string, 0, len(series))
	for _, s := range series {
		labels = append(labels, s.Label+"_mean", s.Label+"_std")
	}
	fmt.Printf("%s,%s\n", xName, strings.Join(labels, ","))
	if len(series) == 0 {
		return
	}
	for i := range series[0].Points {
		row := []string{fmt.Sprintf("%.0f", series[0].Points[i].X)}
		for _, s := range series {
			row = append(row, fmt.Sprintf("%.1f", s.Points[i].Mean), fmt.Sprintf("%.1f", s.Points[i].Std))
		}
		fmt.Println(strings.Join(row, ","))
	}
}

// Series aliases the simexp type for the CSV printer.
type Series = simexp.Series
