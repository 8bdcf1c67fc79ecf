//! SPICE reference flow: the same path stages, simulated in full by the
//! `linvar-spice` baseline.
//!
//! This is the comparator of the paper's Examples 2–3: each stage's
//! transistor-level equivalent (unit driver inverter + the complete,
//! un-reduced interconnect netlist frozen at the parameter sample +
//! receiver load) runs through the conventional Newton/trapezoidal engine.
//! Both engines share the level-1 device model, so accuracy and runtime
//! differences isolate the interconnect-modeling strategy — the point the
//! paper makes under Table 4.

use crate::error::CoreError;
use crate::path::{PathModel, PathSample};
use linvar_circuit::{MosType, Netlist, SourceWaveform};
use linvar_spice::{Transient, TransientOptions};
use linvar_teta::{StopRule, Waveform};

impl PathModel {
    /// Evaluates the path delay at one sample using the SPICE baseline,
    /// stage by stage with waveform propagation — the paper's reference
    /// flow.
    ///
    /// # Errors
    ///
    /// Propagates transient failures ([`linvar_spice::SpiceError`]) and
    /// returns [`CoreError::StageStuck`] when an output never transitions.
    pub fn evaluate_sample_spice(&self, sample: &PathSample) -> Result<f64, CoreError> {
        self.propagate(50e-12, |k, _, input, rule| {
            self.spice_stage_output(k, input, sample, rule)
        })
    }

    /// Simulates one path stage through the SPICE baseline: unit driver
    /// inverter + the complete interconnect netlist frozen at the sample,
    /// driven by `input`. Grows the window up to three times if the output
    /// has not settled in the direction of `rule`. This is both a building
    /// block of the reference flow above and the final rung of the
    /// per-stage recovery ladder.
    pub(crate) fn spice_stage_output(
        &self,
        k: usize,
        input: &Waveform,
        sample: &PathSample,
        rule: &StopRule,
    ) -> Result<Waveform, CoreError> {
        let vdd = self.vdd();
        let tech = &self.tech;
        let load = self.stage_load(k);
        // Assemble the transistor-level stage netlist at this sample.
        let frozen = load.netlist.frozen_at(&sample.wire);
        let mut nl = Netlist::new();
        let vdd_node = nl.node("vdd");
        let in_node = nl.node("stage_in");
        nl.instantiate(&frozen, "", &[])?;
        let near_name = frozen
            .node_name(load.near)
            .expect("near node exists")
            .to_string();
        let far_name = frozen
            .node_name(load.far)
            .expect("far node exists")
            .to_string();
        let near = nl.find_node(&near_name).expect("instantiated");
        nl.add_vsource("Vdd", vdd_node, Netlist::GROUND, SourceWaveform::Dc(vdd))?;
        nl.add_vsource(
            "Vin",
            in_node,
            Netlist::GROUND,
            SourceWaveform::Pwl(input.points().to_vec()),
        )?;
        nl.add_mosfet(
            "MP",
            near,
            in_node,
            vdd_node,
            vdd_node,
            MosType::Pmos,
            &tech.library.pmos_name(),
            tech.wp,
            tech.library.lmin,
        )?;
        nl.add_mosfet(
            "MN",
            near,
            in_node,
            Netlist::GROUND,
            Netlist::GROUND,
            MosType::Nmos,
            &tech.library.nmos_name(),
            tech.wn,
            tech.library.lmin,
        )?;
        let mut t_end = input.end_time() + 1.0e-9;
        for _attempt in 0..3 {
            let mut opts = TransientOptions::new(t_end, 1e-12);
            opts.probes.push(far_name.clone());
            let res = Transient::with_devices(&nl, &tech.library, sample.device, &opts)?.run()?;
            let times = res.times.clone();
            let vals = res.probe(&far_name).expect("probed").to_vec();
            let w = Waveform::from_points(times.into_iter().zip(vals).collect::<Vec<_>>())
                .compress(1e-4 * vdd);
            if rule.settled(&w, vdd) && w.crossing(vdd / 2.0, rule.rising).is_some() {
                return Ok(w);
            }
            t_end *= 2.0;
        }
        Err(CoreError::StageStuck { stage: k })
    }
}

#[cfg(test)]
mod tests {
    use crate::path::{PathModel, PathSample, PathSpec};
    use linvar_devices::tech_018;
    use linvar_interconnect::WireTech;

    fn path(n_elem: usize) -> PathModel {
        let spec = PathSpec {
            cells: vec!["inv".into(), "inv".into()],
            linear_elements_between_stages: n_elem,
            input_slew: 50e-12,
        };
        PathModel::build(&spec, &tech_018(), &WireTech::m018()).unwrap()
    }

    #[test]
    fn spice_and_teta_agree_on_nominal_delay() {
        let model = path(10);
        let sample = PathSample::default();
        let d_teta = model.evaluate_sample(&sample).unwrap();
        let d_spice = model.evaluate_sample_spice(&sample).unwrap();
        let rel = (d_teta - d_spice).abs() / d_spice;
        assert!(
            rel < 0.10,
            "teta {d_teta} vs spice {d_spice} ({:.1}% off)",
            rel * 100.0
        );
    }

    #[test]
    fn spice_reference_sees_wire_variation() {
        let model = path(30);
        let mut slow = PathSample::default();
        slow.wire[4] = 1.5; // high resistivity
        let nominal = model.evaluate_sample_spice(&PathSample::default()).unwrap();
        let slowed = model.evaluate_sample_spice(&slow).unwrap();
        assert!(slowed > nominal, "{slowed} vs {nominal}");
    }
}
