module geofootprint/benchmark

go 1.22

require geofootprint v0.0.0

replace geofootprint => ../
