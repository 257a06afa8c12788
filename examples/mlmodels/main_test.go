package main

// Example runs the program, so `go test` checks its output byte for byte.
func Example() {
	main()
	// Output:
	// profiling 4 private VMs until 12 failure episodes are observed ...
	// feature database: 192 labelled samples, 20 features, 4 VMs
	//
	// model comparison (the paper picks REP-Tree):
	// model                       MAE         RMSE         R2     relErr
	// *REPTree                  38.76        47.52     0.7021     1.6405
	//  SVR                      39.57        48.10     0.6948     1.3625
	//  Lasso                    39.87        48.53     0.6893     1.6359
	//  LinearRegression         39.88        48.56     0.6889     1.6342
	//  M5P                      39.53        49.36     0.6786     1.6955
	//  LS-SVM                   42.08        51.14     0.6549     2.6825
	// selected features (lambda=0.1): zombie_threads(48.906) mem_used_mb(35.565) mem_free_mb(27.014) heap_mb(25.865) uptime_s(15.828) request_rate(8.856) context_switches(5.800) response_time_ms(4.202) queue_length(3.676) disk_used_mb(2.796) open_files(2.695) page_fault_rate(2.065) anomaly_event_rate(1.826) net_connections(1.635) cpu_utilization(1.500) sockets_time_wait(0.713) gc_pause_ms(0.466)
	//
	// predicted RTTF of a freshly rejuvenated VM:      283 s
	// predicted RTTF of an almost-failed VM:            52 s
}
