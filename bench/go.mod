module drtree/bench

go 1.24

require drtree v0.0.0

replace drtree => ../
