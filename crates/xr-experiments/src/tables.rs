//! Table I and Table II regeneration.

use xr_devices::{CnnCatalog, DeviceCatalog};

/// Console/CSV rows reproducing Table I (device specifications).
#[must_use]
pub fn table1_rows() -> Vec<Vec<String>> {
    DeviceCatalog::table1()
        .iter()
        .map(|d| {
            vec![
                d.name.clone(),
                d.model.clone(),
                d.soc.clone(),
                format!("{}", d.cpu_cores),
                format!("{:.2}", d.cpu_clock.as_f64()),
                d.gpu.clone(),
                format!("{:.0}", d.ram_gb),
                format!("{:.1}", d.memory_bandwidth.as_f64()),
                d.os.clone(),
                d.wifi.clone(),
                d.release.clone(),
            ]
        })
        .collect()
}

/// Console/CSV rows reproducing Table II (CNN models).
#[must_use]
pub fn table2_rows() -> Vec<Vec<String>> {
    CnnCatalog::table2()
        .iter()
        .map(|m| {
            vec![
                m.name.clone(),
                format!("{}", m.depth),
                format!("{:.1}", m.size.as_f64()),
                format!("{:.1}", m.depth_scale),
                if m.gpu_support { "yes" } else { "no" }.to_string(),
                if m.quantized { "yes" } else { "no" }.to_string(),
                if m.on_device { "device" } else { "edge" }.to_string(),
            ]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifacts::find;

    #[test]
    fn table1_has_nine_rows_with_matching_header() {
        let rows = table1_rows();
        assert_eq!(rows.len(), 9);
        for row in &rows {
            assert_eq!(row.len(), find("table1").unwrap().columns().len());
        }
        assert!(rows.iter().any(|r| r[1].contains("Quest 2")));
    }

    #[test]
    fn table2_has_eleven_rows_with_matching_header() {
        let rows = table2_rows();
        assert_eq!(rows.len(), 11);
        for row in &rows {
            assert_eq!(row.len(), find("table2").unwrap().columns().len());
        }
        assert!(rows.iter().any(|r| r[0] == "YoloV3" && r[6] == "edge"));
    }
}
