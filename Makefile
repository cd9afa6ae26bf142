# Convenience targets; everything is plain dune underneath.

all:
	dune build @all
	$(MAKE) --no-print-directory parallel-smoke
	$(MAKE) --no-print-directory incremental-smoke
	$(MAKE) --no-print-directory lint-smoke
	$(MAKE) --no-print-directory dataflow-smoke
	$(MAKE) --no-print-directory obs-smoke
	$(MAKE) --no-print-directory serve-smoke
	$(MAKE) --no-print-directory ptsto-smoke
	$(MAKE) --no-print-directory must-smoke
	$(MAKE) --no-print-directory bench-check
	$(MAKE) --no-print-directory pipebench-smoke

test:
	dune runtest

test-force:
	dune runtest --force --no-buffer 2>&1 | tee test_output.txt

bench:
	dune exec bench/main.exe 2>&1 | tee bench_output.txt

bench-quick:
	dune exec bench/main.exe -- quick

# Smoke-test the telemetry surface: profile every example/program and
# validate the emitted JSON with the repo's own parser (no jq needed).
profile-smoke:
	dune build bin/sidefx.exe
	@for f in examples/*.mp programs/*.mp; do \
	  echo "== $$f"; \
	  ./_build/default/bin/sidefx.exe profile $$f --json \
	    | ./_build/default/bin/sidefx.exe json-validate || exit 1; \
	done

# Smoke-test the incremental engine end to end: for every example
# program, run the same random edit script through batch and
# incremental analysis, require identical output, and validate the
# JSON report with the repo's own parser.
incremental-smoke:
	dune build bin/sidefx.exe
	@for f in programs/*.mp; do \
	  echo "== $$f"; \
	  ./_build/default/bin/sidefx.exe edit $$f --random 8 --seed 7 > smoke_batch.tmp || exit 1; \
	  ./_build/default/bin/sidefx.exe edit $$f --random 8 --seed 7 --incremental > smoke_inc.tmp || exit 1; \
	  diff smoke_batch.tmp smoke_inc.tmp || exit 1; \
	  ./_build/default/bin/sidefx.exe edit $$f --random 8 --seed 7 --incremental --json \
	    | ./_build/default/bin/sidefx.exe json-validate || exit 1; \
	done; rm -f smoke_batch.tmp smoke_inc.tmp

# Smoke-test the parallel solvers: analyze every sample program
# sequentially and on a 4-way domain pool and require byte-identical
# output — parallelism must be a pure performance knob (docs/parallel.md).
parallel-smoke:
	dune build bin/sidefx.exe
	@for f in examples/*.mp programs/*.mp; do \
	  echo "== $$f"; \
	  ./_build/default/bin/sidefx.exe analyze $$f > smoke_seq.tmp || exit 1; \
	  ./_build/default/bin/sidefx.exe analyze $$f --jobs 4 > smoke_par.tmp || exit 1; \
	  diff smoke_seq.tmp smoke_par.tmp || exit 1; \
	done; rm -f smoke_seq.tmp smoke_par.tmp

# Smoke-test the lint pipeline: lint every sample program, validate the
# JSON report with the repo's own parser, and require the 4-way pooled
# run to be byte-identical.  lint exits 1 when it has findings (most
# samples do), so only exit codes >= 2 are failures here.
lint-smoke:
	dune build bin/sidefx.exe
	@for f in examples/*.mp programs/*.mp; do \
	  echo "== $$f"; \
	  ./_build/default/bin/sidefx.exe lint $$f --json > lint_smoke.tmp; \
	  [ $$? -le 1 ] || exit 1; \
	  ./_build/default/bin/sidefx.exe json-validate < lint_smoke.tmp || exit 1; \
	  ./_build/default/bin/sidefx.exe lint $$f --json --jobs 4 > lint_smoke4.tmp; \
	  [ $$? -le 1 ] || exit 1; \
	  cmp lint_smoke.tmp lint_smoke4.tmp || exit 1; \
	done; rm -f lint_smoke.tmp lint_smoke4.tmp

# Smoke-test the statement-level dataflow layer: the per-procedure
# solver summary must emit valid JSON and be byte-identical on a 4-way
# pool, and the dead-store / rmw-hint rules must be jobs-invariant too
# (lint exits 1 when it has findings, so only codes >= 2 fail).
dataflow-smoke:
	dune build bin/sidefx.exe
	@for f in examples/*.mp programs/*.mp; do \
	  echo "== $$f"; \
	  ./_build/default/bin/sidefx.exe dataflow $$f --json > df_smoke.tmp || exit 1; \
	  ./_build/default/bin/sidefx.exe json-validate < df_smoke.tmp || exit 1; \
	  ./_build/default/bin/sidefx.exe dataflow $$f --json --jobs 4 > df_smoke4.tmp || exit 1; \
	  cmp df_smoke.tmp df_smoke4.tmp || exit 1; \
	  ./_build/default/bin/sidefx.exe lint $$f --rules dead-store,rmw-hint --json > df_lint.tmp; \
	  [ $$? -le 1 ] || exit 1; \
	  ./_build/default/bin/sidefx.exe json-validate < df_lint.tmp || exit 1; \
	  ./_build/default/bin/sidefx.exe lint $$f --rules dead-store,rmw-hint --json --jobs 4 > df_lint4.tmp; \
	  [ $$? -le 1 ] || exit 1; \
	  cmp df_lint.tmp df_lint4.tmp || exit 1; \
	done; rm -f df_smoke.tmp df_smoke4.tmp df_lint.tmp df_lint4.tmp

# Smoke-test the explain/provenance surface and the deep-profiling
# sinks: one witnessed fact per lint code (SFX008 only fires in
# dataflow_demo.mp, the rest in lint_demo.mp), the --all completeness
# contract on every sample program, and a Chrome trace-event export
# plus stats --json histogram table validated with the repo's own
# JSON parser.
obs-smoke:
	dune build bin/sidefx.exe
	@for code in SFX001 SFX002 SFX003 SFX004 SFX005 SFX006 SFX007 SFX009; do \
	  echo "== diag:$$code"; \
	  ./_build/default/bin/sidefx.exe explain programs/lint_demo.mp \
	    --fact diag:$$code || exit 1; \
	  ./_build/default/bin/sidefx.exe explain programs/lint_demo.mp \
	    --fact diag:$$code --json \
	    | ./_build/default/bin/sidefx.exe json-validate || exit 1; \
	done
	@echo "== diag:SFX008"; \
	./_build/default/bin/sidefx.exe explain programs/dataflow_demo.mp \
	  --fact diag:SFX008 || exit 1; \
	./_build/default/bin/sidefx.exe explain programs/dataflow_demo.mp \
	  --fact diag:SFX008 --json \
	  | ./_build/default/bin/sidefx.exe json-validate || exit 1
	@for code in SFX010 SFX011; do \
	  echo "== diag:$$code"; \
	  ./_build/default/bin/sidefx.exe explain programs/ptr_lint.mp \
	    --fact diag:$$code || exit 1; \
	  ./_build/default/bin/sidefx.exe explain programs/ptr_lint.mp \
	    --fact diag:$$code --json \
	    | ./_build/default/bin/sidefx.exe json-validate || exit 1; \
	done
	@for f in examples/*.mp programs/*.mp; do \
	  echo "== explain --all $$f"; \
	  ./_build/default/bin/sidefx.exe explain $$f --all || exit 1; \
	  ./_build/default/bin/sidefx.exe explain $$f --all --json \
	    | ./_build/default/bin/sidefx.exe json-validate || exit 1; \
	done
	@echo "== profile --trace-out"; \
	./_build/default/bin/sidefx.exe profile programs/lint_demo.mp \
	  --trace-out obs_smoke_trace.tmp > /dev/null || exit 1; \
	./_build/default/bin/sidefx.exe json-validate < obs_smoke_trace.tmp \
	  || exit 1; \
	grep -q '"traceEvents"' obs_smoke_trace.tmp || exit 1; \
	rm -f obs_smoke_trace.tmp
	@echo "== stats --json histograms"; \
	./_build/default/bin/sidefx.exe stats programs/lint_demo.mp --json \
	  > obs_smoke_stats.tmp || exit 1; \
	./_build/default/bin/sidefx.exe json-validate < obs_smoke_stats.tmp \
	  || exit 1; \
	grep -q '"histograms"' obs_smoke_stats.tmp || exit 1; \
	rm -f obs_smoke_stats.tmp

# Smoke-test the analysis server over stdio: one scripted session that
# exercises every request type (load, every query class, an edit with a
# lint delta, explain by fact and --all, stats, unload, shutdown).
# json-validate parses exactly one value, so each response line is
# validated on its own; any "ok":false response fails the target.
serve-smoke:
	dune build bin/sidefx.exe
	@out=serve_smoke.tmp; \
	printf '%s\n' \
	  '{"id":1,"op":"load","program":"tiny","source":"program t; var g : int; begin g := 1; end."}' \
	  '{"id":2,"op":"query","program":"demo","what":"gmod","proc":"logit"}' \
	  '{"id":3,"op":"query","program":"demo","what":"guse","proc":"tally"}' \
	  '{"id":4,"op":"query","program":"demo","what":"rmod","proc":"scale","var":"a"}' \
	  '{"id":5,"op":"query","program":"demo","what":"ruse","proc":"tally","var":"cell"}' \
	  '{"id":6,"op":"query","program":"demo","what":"alias","proc":"outer"}' \
	  '{"id":7,"op":"query","program":"demo","what":"purity","proc":"scale"}' \
	  '{"id":8,"op":"query","program":"demo","what":"mod","site":0}' \
	  '{"id":9,"op":"query","program":"demo","what":"use","site":0}' \
	  '{"id":10,"op":"query","program":"demo","what":"must","proc":"tally"}' \
	  '{"id":11,"op":"edit","program":"demo","session":"s","script":"add-assign logit total = 3","lint":true}' \
	  '{"id":12,"op":"query","program":"demo","session":"s","what":"lint-delta"}' \
	  '{"id":13,"op":"query","program":"demo","session":"s","what":"source"}' \
	  '{"id":14,"op":"explain","program":"demo","fact":"gmod:logit:unread"}' \
	  '{"id":15,"op":"explain","program":"demo","fact":"must:logit:unread"}' \
	  '{"id":16,"op":"explain","program":"demo","all":true}' \
	  '{"id":17,"op":"stats"}' \
	  '{"id":18,"op":"unload","program":"tiny"}' \
	  '{"id":19,"op":"shutdown"}' \
	| ./_build/default/bin/sidefx.exe serve --load demo=programs/lint_demo.mp \
	  > $$out || { echo "serve-smoke: server exited non-zero"; exit 1; }; \
	n=0; while IFS= read -r line; do \
	  n=$$((n+1)); \
	  printf '%s\n' "$$line" \
	    | ./_build/default/bin/sidefx.exe json-validate \
	    || { echo "serve-smoke: response $$n is not valid JSON"; exit 1; }; \
	done < $$out; \
	[ $$n -eq 19 ] \
	  || { echo "serve-smoke: expected 19 responses, got $$n"; cat $$out; exit 1; }; \
	if grep -q '"ok":false' $$out; then \
	  echo "serve-smoke: error response:"; grep '"ok":false' $$out; exit 1; \
	fi; \
	rm -f $$out; \
	echo "serve-smoke: 19 responses, all valid JSON, no errors"

# Smoke-test the points-to surface: both tiers on the pointer demo
# (raw solution + JSON validated by the repo's own parser + the
# interpreter soundness oracle), Andersen strictly refining
# Steensgaard's section-5 pair count, and one alias fact explained
# through its Apointsto witness.
ptsto-smoke:
	dune build bin/sidefx.exe
	@for tier in steensgaard andersen; do \
	  echo "== ptsto --tier $$tier"; \
	  ./_build/default/bin/sidefx.exe ptsto programs/pointers.mp --tier $$tier \
	    > ptsto_$$tier.tmp || exit 1; \
	  cat ptsto_$$tier.tmp; \
	  ./_build/default/bin/sidefx.exe ptsto programs/pointers.mp --tier $$tier --json \
	    | ./_build/default/bin/sidefx.exe json-validate || exit 1; \
	  ./_build/default/bin/sidefx.exe check programs/pointers.mp --ptsto=$$tier || exit 1; \
	done; \
	s=$$(awk 'END { print $$1 }' ptsto_steensgaard.tmp); \
	a=$$(awk 'END { print $$1 }' ptsto_andersen.tmp); \
	rm -f ptsto_steensgaard.tmp ptsto_andersen.tmp; \
	[ "$$a" -lt "$$s" ] \
	  || { echo "ptsto-smoke: andersen ($$a pairs) does not refine steensgaard ($$s)"; exit 1; }
	@echo "== explain Apointsto"; \
	./_build/default/bin/sidefx.exe explain programs/pointers.mp --fact alias:bump:x:cell \
	  | grep -q 'points-to projection' || exit 1; \
	./_build/default/bin/sidefx.exe explain programs/pointers.mp --fact alias:bump:x:cell --json \
	  | ./_build/default/bin/sidefx.exe json-validate || exit 1
	@echo "== ptr_chain 400 (the storage closure at depth)"; \
	awk 'BEGIN { n = 400; \
	  print "program main;"; print "var g0 : int;"; print "var p : ptr of int;"; \
	  for (i = 1; i <= n; i++) { \
	    printf "procedure p%d(var x : int);\nbegin\n", i; \
	    if (i < n) printf "call p%d(x);\n", i + 1; else print "x := 1;"; \
	    print "end;" } \
	  print "begin"; print "  p := &g0;"; print "  call p1( *p);"; print "end." }' \
	  > ptr_chain400.tmp; \
	for tier in steensgaard andersen; do \
	  ./_build/default/bin/sidefx.exe ptsto ptr_chain400.tmp --tier $$tier \
	    | tail -n 1 || exit 1; \
	  ./_build/default/bin/sidefx.exe check ptr_chain400.tmp --ptsto=$$tier || exit 1; \
	done; \
	rm -f ptr_chain400.tmp; \
	echo "ptsto-smoke: ok"

# Smoke-test the must-modify surface end to end on the MUSTMOD demo:
# the report (human + JSON, jobs-4 byte-identical), both MUSTMOD-fed
# lint rules actually firing (SFX012 use-before-init, SFX013
# redundant-store), a witnessed must fact plus the --all completeness
# contract, and `sidefx must --json` validating on every sample
# program.  lint exits 1 when it has findings, so only codes >= 2
# fail there.
must-smoke:
	dune build bin/sidefx.exe
	@echo "== must programs/mustmod_demo.mp"; \
	./_build/default/bin/sidefx.exe must programs/mustmod_demo.mp \
	  > must_smoke.tmp || exit 1; \
	cat must_smoke.tmp; \
	./_build/default/bin/sidefx.exe must programs/mustmod_demo.mp --jobs 4 \
	  > must_smoke4.tmp || exit 1; \
	cmp must_smoke.tmp must_smoke4.tmp || exit 1; \
	rm -f must_smoke.tmp must_smoke4.tmp
	@echo "== lint SFX012/SFX013"; \
	./_build/default/bin/sidefx.exe lint programs/mustmod_demo.mp \
	  --rules use-before-init,redundant-store > must_lint.tmp; \
	[ $$? -le 1 ] || exit 1; \
	cat must_lint.tmp; \
	grep -q 'SFX012' must_lint.tmp \
	  || { echo "must-smoke: SFX012 did not fire"; exit 1; }; \
	grep -q 'SFX013' must_lint.tmp \
	  || { echo "must-smoke: SFX013 did not fire"; exit 1; }; \
	rm -f must_lint.tmp
	@for code in SFX012 SFX013; do \
	  echo "== diag:$$code"; \
	  ./_build/default/bin/sidefx.exe explain programs/mustmod_demo.mp \
	    --fact diag:$$code || exit 1; \
	done
	@echo "== explain must:prime:slot"; \
	./_build/default/bin/sidefx.exe explain programs/mustmod_demo.mp \
	  --fact must:prime:slot || exit 1; \
	./_build/default/bin/sidefx.exe explain programs/mustmod_demo.mp \
	  --fact must:prime:slot --json \
	  | ./_build/default/bin/sidefx.exe json-validate || exit 1; \
	./_build/default/bin/sidefx.exe explain programs/mustmod_demo.mp --all \
	  || exit 1
	@for f in examples/*.mp programs/*.mp; do \
	  echo "== must --json $$f"; \
	  ./_build/default/bin/sidefx.exe must $$f --json \
	    | ./_build/default/bin/sidefx.exe json-validate || exit 1; \
	done

# Pinned perf-regression gate (reduced config, part of `make all`):
# word-ops growth per size doubling and jobs-4 overhead/identity.
bench-check:
	dune exec bench/bench_check.exe

# Smoke-test the pipeline benchmark: a 2-second run of each of its four
# workloads.  Built once and run from _build directly (a second dune
# invocation would wait on the build lock).  Each run's last line is its
# result; it must report correct answers and no failed operations.
pipebench-smoke:
	dune build perfbench/pipebench.exe
	@for w in analyze dataflow lint serve; do \
	  echo "== pipebench $$w"; \
	  ./_build/default/perfbench/pipebench.exe --workload $$w --seed 1 \
	    --seconds 2 --trace 0 > pipebench_smoke.tmp || exit 1; \
	  last=$$(tail -n 1 pipebench_smoke.tmp); \
	  echo "$$last" | grep -q '"correct":true' \
	    || { echo "pipebench-smoke: $$w: not correct: $$last"; exit 1; }; \
	  echo "$$last" | grep -Eq '"failed":0[,}]' \
	    || { echo "pipebench-smoke: $$w: failed operations: $$last"; exit 1; }; \
	done; rm -f pipebench_smoke.tmp

bench-incremental:
	dune exec bench/bench_incremental.exe

bench-parallel:
	dune exec bench/bench_parallel.exe

bench-dataflow:
	dune exec bench/bench_dataflow.exe

bench-ptsto:
	dune exec bench/bench_ptsto.exe

bench-serve:
	dune exec bench/bench_serve.exe

bench-summary:
	dune exec bench/bench_summary.exe

bench-frontend:
	dune exec bench/bench_frontend.exe

bench-must:
	dune exec bench/bench_must.exe

bench-bitvec:
	dune exec bench/bench_bitvec.exe

examples:
	dune exec examples/quickstart.exe
	dune exec examples/parallelize.exe
	dune exec examples/optimizer.exe
	dune exec examples/nested_pascal.exe

.PHONY: all test test-force bench bench-quick bench-check pipebench-smoke bench-incremental bench-parallel bench-dataflow bench-serve bench-summary bench-frontend bench-must bench-bitvec bench-ptsto profile-smoke incremental-smoke parallel-smoke lint-smoke dataflow-smoke obs-smoke serve-smoke ptsto-smoke must-smoke examples
