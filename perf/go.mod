module delphi/perf

go 1.24

require delphi v0.0.0

replace delphi => ../
