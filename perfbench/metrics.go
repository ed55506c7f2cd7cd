package main

// metricDef is one benchmark metric. BENCHMARK.json lists the same names,
// units and directions (TestRegistryMatchesBenchmarkJSON keeps them in
// step); Moves, for a per-layer metric, names the end-to-end metric it is
// expected to move and on which workload.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Moves  string
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. A "pass" is one run of the workload's journey: the
// experiment or population pipeline, or for the serve workloads one replay
// of the load campaign (16 sessions x 64 requests) in the closed loop, as
// prismload replays it.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mib", Unit: "MiB", Better: "lower", Bound: 0.25},
	{Name: "forecasts_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "loaded_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "loaded_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "idle_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "idle_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}

// trainedModels are the models whose training the per-layer metrics break
// out: the experiment trains all four, population streams LSTM, and
// serve-prism5g trains Prism5G in its set-up. Prophet has no training loop
// (it fits at Predict time), so only its Predict is timed.
var trainedModels = []string{"LSTM", "TCN", "Lumos5G", "Prism5G"}

// perLayer are the traced run's metrics, one block per package the
// journeys call into. A layer a workload never calls reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{Name: "sim.build_s", Unit: "s", Better: "lower", Moves: "wall_s on experiment (about 1%); only setup_s on serve-*"},
		{Name: "sim.samples_per_s", Unit: "1/s", Better: "higher", Moves: "wall_s on experiment; setup_s on serve-*"},
		{Name: "sim.allocs_per_sample", Unit: "count", Better: "lower", Moves: "wall_s on experiment through GC"},
		{Name: "pop.build_s", Unit: "s", Better: "lower", Moves: "wall_s on population (about 60%); self time, sink emits excluded"},
		{Name: "pop.ues_per_s", Unit: "1/s", Better: "higher", Moves: "wall_s on population"},
		{Name: "pop.max_attached", Unit: "count", Better: "lower", Moves: "a property of the input, not a target; pins the contention pop.build_s ran at"},
		{Name: "par.speedup", Unit: "ratio", Better: "higher", Moves: "wall_s on population: pop.Build at workers=1 over workers=nproc, same seed"},
		{Name: "trace.prepare_s", Unit: "s", Better: "lower", Moves: "wall_s on experiment (small); setup_s on serve-*"},
		{Name: "trace.windows_per_s", Unit: "1/s", Better: "higher", Moves: "wall_s on experiment and population"},
		{Name: "trace.spill_s", Unit: "s", Better: "lower", Moves: "wall_s on population (write path)"},
		{Name: "trace.spill_mib", Unit: "MiB", Better: "lower", Moves: "wall_s on population (write path)"},
		{Name: "trace.scaler_fit_s", Unit: "s", Better: "lower", Moves: "wall_s on population (read path); small on experiment"},
		{Name: "trace.stream_next_s", Unit: "s", Better: "lower", Moves: "wall_s on population (read path, about 19%)"},
	}
	for _, m := range trainedModels {
		defs = append(defs,
			metricDef{Name: "predictors.train_s." + m, Unit: "s", Better: "lower", Moves: "wall_s on experiment (training is about 30%, Prism5G alone about 15-20%); LSTM also on population (about 28%)"},
			metricDef{Name: "predictors.train_windows_per_s." + m, Unit: "1/s", Better: "higher", Moves: "wall_s on experiment; LSTM also on population"},
			metricDef{Name: "predictors.epochs." + m, Unit: "count", Better: "lower", Moves: "wall_s on experiment; fixed by the config, a change means the work changed"},
			metricDef{Name: "predictors.retries." + m, Unit: "count", Better: "lower", Moves: "wall_s on experiment: each divergence retry reruns epochs"},
		)
	}
	for _, m := range []string{"Prophet", "LSTM", "TCN", "Lumos5G", "Prism5G", "HarmonicMean"} {
		defs = append(defs, metricDef{Name: "predictors.predict_us." + m, Unit: "us", Better: "lower",
			Moves: "Prism5G: idle_p50_ms and forecasts_per_s on serve-prism5g, and wall_s on experiment through cloud gaming's per-frame forecasts; HarmonicMean: serve-harmonic"})
	}
	defs = append(defs,
		metricDef{Name: "predictors.stream_train_self_s", Unit: "s", Better: "lower", Moves: "wall_s on population (about 9%): TrainLoopStream minus trace.stream_next_s"},
		metricDef{Name: "predictors.allocs_per_train_window", Unit: "count", Better: "lower", Moves: "wall_s on experiment and population through GC"},
		metricDef{Name: "qoe.vivo_s", Unit: "s", Better: "lower", Moves: "wall_s on experiment (QoE is about 65%)"},
		metricDef{Name: "qoe.abr_s", Unit: "s", Better: "lower", Moves: "wall_s on experiment"},
		metricDef{Name: "qoe.cloudgaming_s", Unit: "s", Better: "lower", Moves: "wall_s on experiment (about 60%: one Prism5G forecast per frame)"},
		metricDef{Name: "qoe.predictor_calls", Unit: "count", Better: "lower", Moves: "a work count: qoe.*_s divided by it is the cost per forecast"},
		metricDef{Name: "serve.handler_p50_us", Unit: "us", Better: "lower", Moves: "loaded_p50_ms on every workload (timed ServeHTTP, loaded phase)"},
		metricDef{Name: "serve.handler_p99_us", Unit: "us", Better: "lower", Moves: "the loaded tail; p99 is too noisy to gate"},
		metricDef{Name: "serve.queue_wait_p50_us", Unit: "us", Better: "lower", Moves: "loaded_p50_ms: by Little's law loaded p50 is about 16 / forecasts_per_s"},
		metricDef{Name: "serve.queue_wait_p99_us", Unit: "us", Better: "lower", Moves: "the loaded tail"},
		metricDef{Name: "serve.infer_p50_us", Unit: "us", Better: "lower", Moves: "forecasts_per_s and loaded_p50_ms on serve-prism5g"},
		metricDef{Name: "serve.infer_p99_us", Unit: "us", Better: "lower", Moves: "the loaded tail on serve-prism5g"},
		metricDef{Name: "serve.overhead_p50_us", Unit: "us", Better: "lower", Moves: "forecasts_per_s on serve-harmonic (almost all) and serve-prism5g (about 20%): handler minus queue minus infer"},
		metricDef{Name: "serve.idle_handler_p50_us", Unit: "us", Better: "lower", Moves: "idle_p50_ms on every workload"},
		metricDef{Name: "serve.idle_infer_p50_us", Unit: "us", Better: "lower", Moves: "idle_p50_ms on serve-prism5g"},
		metricDef{Name: "serve.idle_overhead_p50_us", Unit: "us", Better: "lower", Moves: "idle_p50_ms on serve-harmonic"},
		metricDef{Name: "serve.ok_ratio", Unit: "ratio", Better: "higher", Moves: "forecasts_per_s: every answer that is not ok is a missed forecast"},
		metricDef{Name: "serve.allocs_per_request", Unit: "count", Better: "lower", Moves: "forecasts_per_s on serve-harmonic through GC (idle phase, server side)"},
		metricDef{Name: "client.decode_us", Unit: "us", Better: "lower", Moves: "generator cost sharing the CPUs; kept visible, not a target"},
		metricDef{Name: "client.sent", Unit: "count", Better: "higher", Moves: "requests in the timed phases; sent = ok + warmup + degraded + shed + error"},
		metricDef{Name: "client.ok", Unit: "count", Better: "higher", Moves: "forecasts_per_s"},
		metricDef{Name: "client.warmup", Unit: "count", Better: "lower", Moves: "0 once sessions are warmed before timing"},
		metricDef{Name: "client.degraded", Unit: "count", Better: "lower", Moves: "forecasts_per_s: fallback answers are not forecasts"},
		metricDef{Name: "client.shed", Unit: "count", Better: "lower", Moves: "forecasts_per_s: 16 sessions never reach QueueCap 64"},
		metricDef{Name: "client.error", Unit: "count", Better: "lower", Moves: "forecasts_per_s"},
		metricDef{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Moves: "every wall_s and latency metric"},
		metricDef{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower", Moves: "every latency metric"},
		metricDef{Name: "runtime.alloc_mib", Unit: "MiB", Better: "lower", Moves: "every wall_s and latency metric through GC"},
		metricDef{Name: "trace_overhead_pct", Unit: "%", Better: "lower", Moves: "none: traced wall_s over untraced wall_s in the same run"},
	)
	return defs
}()
