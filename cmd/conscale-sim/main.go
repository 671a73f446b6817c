// Command conscale-sim runs one full scaling scenario — trace, framework,
// topology — and emits the per-second timeline as CSV plus a summary of
// tail latencies and scaling events on stderr.
//
// Usage:
//
//	conscale-sim -trace large-variations -mode conscale -seed 1 > timeline.csv
//	conscale-sim -mode ec2 -duration 720 -users 7500 -summary
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"conscale/internal/des"
	"conscale/internal/experiment"
	"conscale/internal/plot"
	"conscale/internal/scaling"
	"conscale/internal/workload"
)

func main() {
	var (
		traceName = flag.String("trace", workload.LargeVariations, "workload trace: "+strings.Join(workload.Names(), ", "))
		mode      = flag.String("mode", "conscale", "scaling framework: ec2, dcm, conscale")
		seed      = flag.Uint64("seed", 1, "experiment seed (runs are bit-reproducible)")
		users     = flag.Int("users", 7500, "maximum concurrent users")
		duration  = flag.Float64("duration", 720, "run length in simulated seconds")
		think     = flag.Float64("think", 3, "mean user think time in seconds")
		summary   = flag.Bool("summary", false, "print only the summary, no CSV")
		showPlot  = flag.Bool("plot", false, "render the RT/throughput timeline as an ASCII chart on stderr")
	)
	flag.Parse()

	m, err := scaling.ParseMode(*mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	cfg := experiment.DefaultRunConfig(m, *traceName)
	cfg.Seed = *seed
	cfg.MaxUsers = *users
	cfg.Duration = des.Time(*duration)
	cfg.ThinkTime = *think

	res := experiment.Run(cfg)
	experiment.RenderRunSummary(os.Stderr, res)
	if *showPlot {
		var ts, rts, tps []float64
		for _, p := range res.Timeline {
			ts = append(ts, float64(p.Time))
			rts = append(rts, p.MeanRT*1000)
			tps = append(tps, p.Throughput)
		}
		fmt.Fprintln(os.Stderr, plot.New("response time (ms)", 100, 16).
			Labels("time (s)", "mean RT (ms)").Line("rt", ts, rts, '*').Render())
		fmt.Fprintln(os.Stderr, plot.New("throughput (req/s)", 100, 12).
			Labels("time (s)", "req/s").Line("tp", ts, tps, '+').Render())
	}
	if !*summary {
		if err := experiment.WriteTimelineCSV(os.Stdout, res); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
